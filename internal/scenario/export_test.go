package scenario

// Parse decodes a scenario from YAML (or JSON — valid JSON is a YAML
// subset only for the flow forms this parser rejects, so JSON sources go
// through ParseJSON in file.go) and validates it.
func Parse(src []byte) (*Scenario, error) {
	raw, err := ParseYAML(src)
	if err != nil {
		return nil, err
	}
	return Decode(raw)
}

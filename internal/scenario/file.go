package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Load reads and decodes one scenario file. The syntax is chosen by
// extension: .json goes through encoding/json, everything else through the
// YAML-subset parser. Both feed the same strict decoder, so the schema —
// unknown-field rejection included — is identical either way.
func Load(path string) (*Scenario, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var raw map[string]any
	if strings.EqualFold(filepath.Ext(path), ".json") {
		if err := json.Unmarshal(src, &raw); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	} else {
		if raw, err = ParseYAML(src); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	sc, err := Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// Discover lists the scenario files under dir (non-recursive), sorted by
// name: the corpus a CI sweep fans out over.
func Discover(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		switch strings.ToLower(filepath.Ext(e.Name())) {
		case ".yaml", ".yml", ".json":
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}

// WriteArtifacts dumps the run's forensic outputs under dir, one file per
// machine timeline plus the full summary — what the CI sweep uploads when
// a scenario fails.
func (r *Result) WriteArtifacts(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, data []byte) error {
		return os.WriteFile(filepath.Join(dir, name), data, 0o644)
	}
	writeJSON := func(name string, v any) error {
		blob, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		return write(name, append(blob, '\n'))
	}
	errs := []error{write("summary.txt", []byte(r.Summary())), writeJSON("result.json", r)}
	for _, f := range r.Flights {
		errs = append(errs, write(fmt.Sprintf("flight-%s.txt", f.Machine), []byte(f.Timeline)))
	}
	if r.Metrics != nil {
		// The deterministic fleet metrics snapshot: the telemetry-golden CI
		// job runs the scenario twice and diffs this file byte-for-byte.
		errs = append(errs, writeJSON("metrics.json", r.Metrics))
	}
	if r.TimelineJSON != "" {
		// The merged fleet Chrome/Perfetto timeline (ui.perfetto.dev): one
		// process per machine, flow arrows across them.
		errs = append(errs, write("timeline.json", []byte(r.TimelineJSON)))
	}
	return errors.Join(errs...)
}

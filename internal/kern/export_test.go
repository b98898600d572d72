package kern

// InFlightAIOs returns the requests AioSubmit tracked and AioWait has not
// reaped.
func (p *Proc) InFlightAIOs() []*AIORequest {
	out := make([]*AIORequest, len(p.aios))
	copy(out, p.aios)
	return out
}

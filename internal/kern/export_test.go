package kern

// InFlightAIOs returns tracked requests (checkpoint path). Pending reads
// are reissued at restore; the checkpoint completes only after writes are
// incorporated.
func (p *Proc) InFlightAIOs() []*AIORequest {
	out := make([]*AIORequest, len(p.aios))
	copy(out, p.aios)
	return out
}

package trace

// Add records one observation. Negative values clamp to zero, matching
// the tracer's Observe path.
func (h *Histogram) Add(v int64) { h.observe(v) }

// Quantile returns the named histogram's q-quantile (0 if absent).
func (t *Tracer) Quantile(name string, q float64) int64 {
	if t == nil {
		return 0
	}
	return t.hists[name].Quantile(q)
}

// ChildOn opens a span nested under s on a different track.
func (s Span) ChildOn(track Track, name string, args ...Arg) Span {
	if s.t == nil {
		return Span{}
	}
	return s.t.begin(track, name, s.ev.ID, args)
}

// Tracks returns every defined lane in export order.
func Tracks() []Track {
	out := make([]Track, 0, numTracks)
	for t := Track(0); t < numTracks; t++ {
		out = append(out, t)
	}
	return out
}

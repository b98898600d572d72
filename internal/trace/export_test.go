package trace

// Add records one observation. Negative values clamp to zero, matching
// the tracer's Observe path.
func (h *Histogram) Add(v int64) { h.observe(v) }

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

package trace

import "io"

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

// WriteChrome emits the tracer's own timeline as Chrome trace-event JSON.
func (t *Tracer) WriteChrome(w io.Writer) error {
	return WriteChrome(w, []Timeline{{T: t}})
}

// gaugeValue returns the named gauge's reading (0 if absent).
func gaugeValue(t *Tracer, name string) int64 {
	for _, v := range t.Metrics().Gauges {
		if v.Name == name {
			return v.Value
		}
	}
	return 0
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

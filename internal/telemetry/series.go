package telemetry

import "time"

// Agg is the combine rule a series uses when downsampling folds raw
// samples (and stored point pairs) together.
type Agg uint8

// Aggregators.
const (
	AggLast Agg = iota // latest value wins — counters, gauges
	AggMax             // maximum survives — latency quantiles, spikes
)

// String names the aggregator in snapshots.
func (a Agg) String() string {
	switch a {
	case AggLast:
		return "last"
	case AggMax:
		return "max"
	}
	return "agg?"
}

// Point is one stored sample: virtual timestamp and aggregated value.
type Point struct {
	T time.Duration `json:"t_ns"`
	V int64         `json:"v"`
}

// defaultSeriesCap bounds every series to this many stored points.
// Retention is unbounded in time but bounded in space: when the ring
// fills, adjacent point pairs merge and the per-point stride doubles, so
// a series that has seen 2^k * cap samples stores cap points each
// covering 2^k raw samples. History compresses; it never slides off.
const defaultSeriesCap = 64

// Series is a bounded time-series ring with pair-merge downsampling.
// Only its owning Registry mutates it.
type Series struct {
	agg    Agg
	cap    int
	stride int64 // raw samples folded into one stored point
	fill   int64 // raw samples accumulated into the pending tail point
	pts    []Point
}

func newSeries(agg Agg, capacity int) *Series {
	return &Series{agg: agg, cap: capacity, stride: 1}
}

// combine folds nv into ov under the series aggregator.
func (s *Series) combine(ov, nv int64) int64 {
	switch s.agg {
	case AggMax:
		if nv > ov {
			return nv
		}
		return ov
	}
	return nv // AggLast
}

// append records one raw sample at virtual time t.
func (s *Series) append(t time.Duration, v int64) {
	if s.fill > 0 {
		// Fold into the pending tail point; its timestamp stays at the
		// first raw sample of the window so point spacing is regular.
		last := &s.pts[len(s.pts)-1]
		last.V = s.combine(last.V, v)
		s.fill++
		if s.fill == s.stride {
			s.fill = 0
		}
		return
	}
	if len(s.pts) == s.cap {
		// Ring full: merge adjacent pairs in place and double the stride.
		half := s.cap / 2
		for i := 0; i < half; i++ {
			s.pts[i] = Point{T: s.pts[2*i].T, V: s.combine(s.pts[2*i].V, s.pts[2*i+1].V)}
		}
		s.pts = s.pts[:half]
		s.stride *= 2
	}
	s.pts = append(s.pts, Point{T: t, V: v})
	if s.stride > 1 {
		s.fill = 1
	}
}

package trace

import (
	"math"
	"testing"

	"aurora/internal/clock"
)

// Histogram edge cases: the forensic rollups lean on these summaries, so
// the degenerate shapes (empty, single sample, extreme values) must not
// produce nonsense numbers.

func TestHistogramZeroObservations(t *testing.T) {
	// A histogram that was allocated but never observed: snapshot must
	// report all-zero, not the sentinel min (MaxInt64).
	h := &Histogram{name: "empty", min: int64(^uint64(0) >> 1)}
	s := h.snapshot()
	if s.Count != 0 || s.Sum != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatalf("empty snapshot not zeroed: %+v", s)
	}
	if s.P50 != 0 || s.P95 != 0 || s.P99 != 0 {
		t.Fatalf("empty snapshot quantiles not zero: %+v", s)
	}
}

func TestHistogramMaxValueBucket(t *testing.T) {
	// MaxInt64 lands in the top reachable bucket (bit length 63); the
	// quantile bucket-midpoint math shifts 1<<63, which overflows int64 —
	// the clamp into [min, max] must keep the estimate sane.
	tr := New(clock.NewVirtual())
	tr.Observe("big", math.MaxInt64)
	tr.Observe("big", math.MaxInt64)
	h := tr.Metrics().Histograms[0]
	if h.Min != math.MaxInt64 || h.Max != math.MaxInt64 {
		t.Fatalf("min/max: %+v", h)
	}
	for _, q := range []int64{h.P50, h.P95, h.P99} {
		if q != math.MaxInt64 {
			t.Fatalf("quantile %d escaped the [min,max] clamp: %+v", q, h)
		}
	}
	if h.Sum != -2 {
		// Sum wraps (documented int64 accumulation); assert the wrap is
		// deterministic rather than pretending it cannot happen.
		t.Fatalf("sum = %d, want deterministic wrap -2", h.Sum)
	}
}

func TestHistogramNegativeClampsToZero(t *testing.T) {
	tr := New(clock.NewVirtual())
	tr.Observe("neg", -12345)
	h := tr.Metrics().Histograms[0]
	if h.Min != 0 || h.Max != 0 || h.P99 != 0 {
		t.Fatalf("negative observation not clamped: %+v", h)
	}
}

func TestHistogramP99SingleSample(t *testing.T) {
	// One sample: every quantile IS that sample — the rank rounds to the
	// only occupied bucket and the clamp pins the midpoint to the value.
	tr := New(clock.NewVirtual())
	tr.Observe("one", 7777)
	h := tr.Metrics().Histograms[0]
	if h.P50 != 7777 || h.P95 != 7777 || h.P99 != 7777 {
		t.Fatalf("single-sample quantiles: %+v", h)
	}
}

func TestHistogramZeroValueObservation(t *testing.T) {
	// Observing literal zero occupies bucket 0 (bit length of 0 is 0) and
	// must round-trip through quantile without the lo = 1<<(i-1) branch.
	tr := New(clock.NewVirtual())
	for i := 0; i < 10; i++ {
		tr.Observe("z", 0)
	}
	h := tr.Metrics().Histograms[0]
	if h.Count != 10 || h.P50 != 0 || h.P99 != 0 {
		t.Fatalf("all-zero summary: %+v", h)
	}
}

package trace

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"time"

	"aurora/internal/clock"
)

func TestSpanTree(t *testing.T) {
	clk := clock.NewVirtual()
	tr := New(clk)

	root := tr.Begin(TrackSLS, "checkpoint")
	clk.Advance(100 * time.Microsecond)
	child := root.Child("stop")
	clk.Advance(40 * time.Microsecond)
	child.End()
	clk.Advance(60 * time.Microsecond)
	root.End()

	events := tr.Events()
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	// Events land in End order: child first.
	c, r := events[0], events[1]
	if c.Name != "stop" || r.Name != "checkpoint" {
		t.Fatalf("unexpected order: %q then %q", c.Name, r.Name)
	}
	if c.Parent != r.ID {
		t.Errorf("child parent=%d, want root id %d", c.Parent, r.ID)
	}
	if c.Dur != 40*time.Microsecond {
		t.Errorf("child dur=%v, want 40µs", c.Dur)
	}
	if r.Dur != 200*time.Microsecond {
		t.Errorf("root dur=%v, want 200µs", r.Dur)
	}
	if r.Start != 0 || c.Start != 100*time.Microsecond {
		t.Errorf("starts: root=%v child=%v", r.Start, c.Start)
	}
}

func TestRangeClampsNegative(t *testing.T) {
	tr := New(clock.NewVirtual())
	tr.Range(TrackDevice, "write", 50*time.Microsecond, 10*time.Microsecond)
	ev := tr.Events()[0]
	if ev.Dur != 0 {
		t.Errorf("inverted range dur=%v, want 0", ev.Dur)
	}
}

func TestCountersAndGauges(t *testing.T) {
	clk := clock.NewVirtual()
	tr := New(clk)
	tr.Count("dev.submits", 1)
	tr.Count("dev.submits", 2)
	tr.Gauge("flush.depth", 7)
	if got := tr.CounterValue("dev.submits"); got != 3 {
		t.Errorf("counter=%d, want 3", got)
	}
	if got := tr.CounterValue("missing"); got != 0 {
		t.Errorf("missing counter=%d, want 0", got)
	}
	tr.Gauge("flush.depth", 4)
	if got := gaugeValue(tr, "flush.depth"); got != 4 {
		t.Errorf("gauge=%d, want the last value 4", got)
	}
	m := tr.Metrics()
	if len(m.Counters) != 1 || m.Counters[0] != (NamedValue{"dev.submits", 3}) {
		t.Errorf("counters snapshot: %+v", m.Counters)
	}
	if len(m.Gauges) != 1 || m.Gauges[0] != (NamedValue{"flush.depth", 4}) {
		t.Errorf("gauges snapshot: %+v", m.Gauges)
	}
	// Every update also lands on the timeline as a counter sample.
	if n := len(tr.Events()); n != 4 {
		t.Errorf("counter samples = %d, want 4", n)
	}
}

// TestMetricsOnlyKeepsStoreNotTimeline: the Config.Telemetry-without-Trace
// observer accumulates every number and retains no event; its spans are
// inert, so no span id ever reaches a frame header.
func TestMetricsOnlyKeepsStoreNotTimeline(t *testing.T) {
	tr := NewMetricsOnly(clock.NewVirtual())
	sp := tr.Begin(TrackSLS, "checkpoint", I("kind", 1))
	sp.Child("stop").End()
	sp.End()
	tr.Range(TrackDevice, "dev.write", 0, 1)
	tr.Instant(TrackFault, "cut")
	tr.Count("c", 2)
	tr.Gauge("g", 3)
	tr.Observe("h", 4)
	if sp.ID() != 0 || tr.Events() != nil {
		t.Fatalf("metrics-only tracer kept a timeline: span id %d, %d events", sp.ID(), len(tr.Events()))
	}
	if tr.CounterValue("c") != 2 || gaugeValue(tr, "g") != 3 || tr.Quantile("h", 0.5) != 4 {
		t.Fatalf("metrics-only tracer lost a number: %+v", tr.Metrics())
	}
}

// TestBeginArgsReachTheEvent is the begin-args regression: Begin, Child and
// ChildOn used to accept args and drop them.
func TestBeginArgsReachTheEvent(t *testing.T) {
	clk := clock.NewVirtual()
	tr := New(clk)
	root := tr.Begin(TrackSLS, "checkpoint", I("kind", 2))
	root.Child("stop", S("why", "quiesce")).End()
	root.ChildOn(TrackFlush, "flush.job", I("oid", 1000)).End(I("pages", 3))
	root.End(I("epoch", 7))
	want := map[string][]Arg{
		"stop":       {S("why", "quiesce")},
		"flush.job":  {I("oid", 1000), I("pages", 3)},
		"checkpoint": {I("kind", 2), I("epoch", 7)},
	}
	for _, ev := range tr.Events() {
		if !slices.Equal(ev.Args, want[ev.Name]) {
			t.Errorf("%s args = %+v, want %+v", ev.Name, ev.Args, want[ev.Name])
		}
	}
}

// TestNilObserverAllocatesNothing: the off path is one pointer check and no
// allocation, args included — an Arg holds no interface and a disabled
// tracer never copies the variadic slice.
func TestNilObserverAllocatesNothing(t *testing.T) {
	var tr *Tracer
	big := int64(1) << 40 // boxing this into an interface would allocate
	allocs := testing.AllocsPerRun(100, func() {
		tr.Count("c", big)
		tr.Observe("h", big)
		tr.Gauge("g", big)
		sp := tr.Begin(TrackSLS, "checkpoint", I("kind", big), S("group", "app"))
		sp.Child("stop", I("n", big)).End(I("pages", big))
		sp.ChildOn(TrackFlush, "flush.job", I("oid", big)).End()
		sp.End(I("epoch", big), D("lat", time.Duration(big)))
		tr.Instant(TrackFault, "cut", I("at", big))
		tr.Range(TrackDevice, "dev.write", 0, 1, I("bytes", big))
	})
	if allocs != 0 {
		t.Fatalf("nil observer allocated %.0f times per run, want 0", allocs)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	tr := New(clock.NewVirtual())
	for i := int64(1); i <= 1000; i++ {
		tr.Observe("lat", i)
	}
	hs := tr.Metrics().Histograms
	if len(hs) != 1 {
		t.Fatalf("got %d histograms", len(hs))
	}
	h := hs[0]
	if h.Count != 1000 || h.Min != 1 || h.Max != 1000 {
		t.Fatalf("summary: %+v", h)
	}
	// Log2 buckets bound relative error by 2x.
	if h.P50 < 250 || h.P50 > 1000 {
		t.Errorf("p50=%d out of [250,1000]", h.P50)
	}
	if h.P99 < 500 || h.P99 > 1000 {
		t.Errorf("p99=%d out of [500,1000]", h.P99)
	}
	if h.P50 > h.P95 || h.P95 > h.P99 {
		t.Errorf("quantiles not monotone: %d %d %d", h.P50, h.P95, h.P99)
	}
}

func TestHistogramSingleValue(t *testing.T) {
	tr := New(clock.NewVirtual())
	tr.Observe("x", 42)
	h := tr.Metrics().Histograms[0]
	if h.Min != 42 || h.Max != 42 || h.P50 != 42 || h.P99 != 42 {
		t.Errorf("single-value summary: %+v", h)
	}
}

func TestWriteChromeValidJSON(t *testing.T) {
	clk := clock.NewVirtual()
	tr := New(clk)
	s := tr.Begin(TrackObjstore, "commit", I("epoch", 3))
	clk.Advance(time.Millisecond)
	s.End()
	tr.Instant(TrackFault, "crash", S("why", "cut"))
	tr.Count("dev.bytes", 4096)

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	phases := map[string]int{}
	for _, ev := range out {
		phases[ev["ph"].(string)]++
	}
	if phases["X"] != 1 || phases["i"] != 1 || phases["C"] != 1 || phases["M"] == 0 {
		t.Errorf("phase counts: %v", phases)
	}
}

func TestWriteChromeNil(t *testing.T) {
	var tr *Tracer
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var out []any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("nil tracer JSON: %v", err)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	s := tr.Begin(TrackSLS, "x")
	c := s.Child("y")
	c.End()
	s.End()
	tr.Range(TrackDevice, "z", 0, 1)
	tr.Instant(TrackFault, "f")
	tr.Count("c", 1)
	tr.Gauge("g", 1)
	tr.Observe("h", 1)
	m := tr.Metrics()
	if tr.Events() != nil || m.Histograms != nil || m.Counters != nil || m.Gauges != nil {
		t.Error("nil tracer returned non-nil snapshots")
	}
	if tr.CounterValue("c") != 0 || gaugeValue(tr, "g") != 0 || tr.Quantile("h", 0.99) != 0 || tr.HistogramCopy("h") != nil {
		t.Error("nil tracer reads not zero")
	}
	if tr.Rollup() == "" || tr.TimelineTail(5) != "" {
		t.Error("nil tracer text output wrong")
	}
}

func TestRollupAndTail(t *testing.T) {
	clk := clock.NewVirtual()
	tr := New(clk)
	s := tr.Begin(TrackSLS, "checkpoint")
	clk.Advance(time.Millisecond)
	s.End()
	tr.Observe("dev.settle.ns", 1000)
	tr.Count("dev.submits", 1)
	roll := tr.Rollup()
	for _, want := range []string{"checkpoint", "dev.settle.ns", "dev.submits"} {
		if !strings.Contains(roll, want) {
			t.Errorf("rollup missing %q:\n%s", want, roll)
		}
	}
	tail := tr.TimelineTail(10)
	if !strings.Contains(tail, "checkpoint") {
		t.Errorf("tail missing span:\n%s", tail)
	}
	if got := strings.Count(tr.TimelineTail(1), "\n"); got != 1 {
		t.Errorf("tail(1) lines=%d, want 1", got)
	}
}

func TestFleetChromeFlowStitching(t *testing.T) {
	clk := clock.NewVirtual()
	src, dst := New(clk), New(clk)
	id := FlowID(MachineID("src"), 1)
	sp := src.Begin(TrackNet, "net.transfer", I("epoch", 4))
	clk.Advance(5 * time.Millisecond)
	sp.End(I(FlowOut, int64(id)), I("encode_host_ns", 123))
	dst.Instant(TrackNet, "net.recv", I(FlowIn, int64(id)))
	var buf bytes.Buffer
	err := WriteChrome(&buf, []Timeline{{Name: "src", T: src}, {Name: "dst", T: dst}})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"ph":"s"`, `"ph":"f"`, `"bp":"e"`, // both flow ends, binding enclosing
		`"process_name"`, `"net.transfer"`, `"net.recv"`, `"epoch":4`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("fleet chrome missing %s:\n%s", want, out)
		}
	}
	if strings.Count(out, `"name":"flow"`) != 2 {
		t.Fatalf("want exactly 2 flow phases:\n%s", out)
	}
	// A named timeline is a determinism-checked artifact: no host-clock
	// args, no span ids. The machine's own export keeps both.
	if strings.Contains(out, "_host_ns") || strings.Contains(out, `"id":"1"`) {
		t.Fatalf("fleet export kept a run-to-run figure:\n%s", out)
	}
	buf.Reset()
	if err := src.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if one := buf.String(); !strings.Contains(one, `"encode_host_ns":123`) || !strings.Contains(one, `"id":"1"`) ||
		strings.Contains(one, "process_name") {
		t.Fatalf("single-machine export:\n%s", one)
	}
	// Empty input still emits a valid JSON array.
	buf.Reset()
	if err := WriteChrome(&buf, nil); err != nil || strings.TrimSpace(buf.String()) != "[]" {
		t.Fatalf("empty timeline: %v %q", err, buf.String())
	}
}

func TestFlowIDDeterministic(t *testing.T) {
	a, b := MachineID("a"), MachineID("b")
	if a == b || a == 0 {
		t.Fatal("MachineID degenerate")
	}
	if FlowID(a, 1) != FlowID(a, 1) {
		t.Fatal("FlowID not deterministic")
	}
	if FlowID(a, 1) == FlowID(b, 1) || FlowID(a, 1) == FlowID(a, 2) {
		t.Fatal("FlowID collides on trivial inputs")
	}
	// A flow id is an integer; a string under the flow key draws no arrow.
	tr := New(clock.NewVirtual())
	tr.Instant(TrackNet, "net.recv", S(FlowIn, "nope"))
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil || strings.Contains(buf.String(), `"name":"flow"`) {
		t.Fatalf("string flow id drew an arrow: %v\n%s", err, buf.String())
	}
}

// BenchmarkNilTracerHook measures the disabled-tracing cost at an
// instrumented site: one pointer check. The CI overhead guard multiplies
// this by the hook count of a traced run.
func BenchmarkNilTracerHook(b *testing.B) {
	var tr *Tracer
	for i := 0; i < b.N; i++ {
		if tr != nil {
			tr.Count("dev.submits", 1)
		}
	}
}

func BenchmarkEnabledSpan(b *testing.B) {
	clk := clock.NewVirtual()
	tr := New(clk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := tr.Begin(TrackDevice, "submit")
		s.End()
	}
}

// observe is one instrumented site as the layers write it: a counter, a
// histogram sample and a span with a begin- and an end-arg.
func observe(tr *Tracer, i int64) {
	tr.Count("dev.submits", 1)
	tr.Observe("dev.settle.ns", i)
	sp := tr.Begin(TrackDevice, "dev.write", I("off", i))
	sp.End(I("bytes", 4096))
}

// BenchmarkObserverOn is the enabled cost of that site (run with -benchmem:
// the span's args and its event are the allocations).
func BenchmarkObserverOn(b *testing.B) {
	tr := New(clock.NewVirtual())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		observe(tr, int64(i))
	}
}

// BenchmarkObserverNil is the same site with no observer: 0 allocs/op.
func BenchmarkObserverNil(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		observe(nil, int64(i))
	}
}

package telemetry

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"time"

	"aurora/internal/clock"
	"aurora/internal/trace"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Store().Count("c", 1)
	r.Store().Gauge("g", 2)
	r.Store().Observe("h", 3)
	r.Record("s", AggLast, 4)
	r.Sample()
	if r.Store().CounterValue("c") != 0 || trace.ValueOf(r.Store().Metrics().Gauges, "g") != 0 {
		t.Fatal("nil registry leaked a value")
	}
	if v, n := Judge(SLOP99Under, "h", r); v != 0 || n != 0 || r.Store().HistogramCopy("h") != nil || r.SeriesPoints("s") != nil {
		t.Fatal("nil registry reads not zero")
	}
	snap := r.Snapshot("m")
	if len(snap.Counters) != 0 {
		t.Fatal("nil snapshot not empty")
	}
	if New(nil) != nil {
		t.Fatal("a registry over no store must be the nil registry")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf, "m"); err != nil || buf.Len() != 0 {
		t.Fatalf("nil prometheus: %v %q", err, buf.String())
	}
}

func TestCountersGaugesHistograms(t *testing.T) {
	clk := clock.NewVirtual()
	r := New(trace.NewMetricsOnly(clk))
	r.Store().Count("ops", 5)
	r.Store().Count("ops", 7)
	if got := r.Store().CounterValue("ops"); got != 12 {
		t.Fatalf("counter = %d, want 12", got)
	}
	r.Store().Gauge("load", 3)
	r.Store().Gauge("load", 9)
	if got := trace.ValueOf(r.Store().Metrics().Gauges, "load"); got != 9 {
		t.Fatalf("gauge = %d, want 9", got)
	}
	for _, v := range []int64{100, 200, 400} {
		r.Store().Observe("lat", v)
	}
	if q, _ := Judge(SLOP99Under, "lat", r); q < 200 || q > 400 {
		t.Fatalf("p99 = %d, want within [200,400]", q)
	}
	h := r.Store().HistogramCopy("lat")
	if h == nil || h.Samples() != 3 {
		t.Fatalf("histogram copy: %+v", h)
	}
	// The copy is detached: observing more does not mutate it.
	r.Store().Observe("lat", 800)
	if h.Samples() != 3 {
		t.Fatal("HistogramCopy aliases live histogram")
	}
}

func TestSeriesDownsampling(t *testing.T) {
	clk := clock.NewVirtual()
	r := New(trace.NewMetricsOnly(clk))
	// Push 3*cap samples of a ramp through an AggMax series: the ring
	// must stay bounded, stride must grow, and the max must survive.
	n := 3 * defaultSeriesCap
	for i := 0; i < n; i++ {
		r.Record("ramp", AggMax, int64(i))
		clk.Advance(time.Millisecond)
	}
	pts := r.SeriesPoints("ramp")
	if len(pts) > defaultSeriesCap {
		t.Fatalf("series grew past cap: %d points", len(pts))
	}
	last := pts[len(pts)-1]
	if last.V != int64(n-1) {
		t.Fatalf("AggMax lost the ramp peak: tail=%d want %d", last.V, n-1)
	}
	// Timestamps stay monotone through pair merges.
	for i := 1; i < len(pts); i++ {
		if pts[i].T <= pts[i-1].T {
			t.Fatalf("series timestamps not monotone at %d: %v then %v", i, pts[i-1].T, pts[i].T)
		}
	}
	// First point still anchors at t=0: history compresses, never slides off.
	if pts[0].T != 0 {
		t.Fatalf("series lost its origin: first point at %v", pts[0].T)
	}
}

func TestSeriesAggregators(t *testing.T) {
	l := newSeries(AggLast, 4)
	for i := int64(1); i <= 8; i++ {
		l.append(time.Duration(i), i)
	}
	if tail := l.pts[len(l.pts)-1].V; tail != 8 {
		t.Fatalf("AggLast tail = %d, want 8", tail)
	}
	for _, a := range []Agg{AggLast, AggMax, Agg(99)} {
		if a.String() == "" {
			t.Fatal("empty agg name")
		}
	}
}

func TestSampleCadence(t *testing.T) {
	clk := clock.NewVirtual()
	r := New(trace.NewMetricsOnly(clk))
	r.Store().Count("ops", 10)
	r.Store().Gauge("load", 4)
	r.Store().Observe("stop", 500)
	r.Sample()
	clk.Advance(time.Millisecond)
	r.Store().Count("ops", 5)
	r.Store().Observe("stop", 900)
	r.Sample()
	ops := r.SeriesPoints("ops")
	if len(ops) != 2 || ops[0].V != 10 || ops[1].V != 15 {
		t.Fatalf("counter series: %+v", ops)
	}
	if pts := r.SeriesPoints("load"); len(pts) != 2 || pts[1].V != 4 {
		t.Fatalf("gauge series: %+v", pts)
	}
	p99 := r.SeriesPoints("stop.p99")
	if len(p99) != 2 || p99[1].V < p99[0].V {
		t.Fatalf("hist p99 series: %+v", p99)
	}
}

func TestSLOWatchFiresOncePerEpisode(t *testing.T) {
	clk := clock.NewVirtual()
	r := New(trace.NewMetricsOnly(clk))
	w := NewWatch([]SLO{
		{Name: "stop-p99", Metric: "stop", Kind: SLOP99Under, Bound: 1000},
		{Name: "window-max", Metric: "window", Kind: SLOMaxUnder, Bound: 50},
	})
	r.Store().Observe("stop", 100)
	r.Record("window", AggMax, 10)
	if got := w.Eval(r, clk.Now()); len(got) != 0 {
		t.Fatalf("healthy eval fired: %+v", got)
	}
	// Breach the p99 bound.
	for i := 0; i < 100; i++ {
		r.Store().Observe("stop", 5000)
	}
	clk.Advance(time.Millisecond)
	first := w.Eval(r, clk.Now())
	if len(first) != 1 || first[0].SLO != "stop-p99" || first[0].Value < 1000 {
		t.Fatalf("breach eval: %+v", first)
	}
	// Sustained violation does not re-fire.
	if again := w.Eval(r, clk.Now()); len(again) != 0 {
		t.Fatalf("sustained breach re-fired: %+v", again)
	}
	// Second rule breaches independently.
	r.Record("window", AggMax, 80)
	second := w.Eval(r, clk.Now())
	if len(second) != 1 || second[0].SLO != "window-max" {
		t.Fatalf("second rule: %+v", second)
	}
	if all := w.Breaches(); len(all) != 2 {
		t.Fatalf("breach log: %+v", all)
	}
	// Eval counts what it logs, once, in the store it judged.
	if got := r.Store().CounterValue("slo.breaches"); got != 2 {
		t.Fatalf("slo.breaches = %d, want the breach log's length 2", got)
	}
	if s := first[0].String(); !strings.Contains(s, "stop-p99") || !strings.Contains(s, "violated") {
		t.Fatalf("breach string: %q", s)
	}
}

func TestSLOFinalAtLeast(t *testing.T) {
	clk := clock.NewVirtual()
	r := New(trace.NewMetricsOnly(clk))
	w := NewWatch([]SLO{{Name: "ops-floor", Metric: "ops", Kind: SLOFinalAtLeast, Bound: 100}})
	r.Record("ops", AggLast, 40)
	// final-at-least never trips during the run...
	if got := w.Eval(r, clk.Now()); len(got) != 0 {
		t.Fatalf("final-at-least tripped mid-run: %+v", got)
	}
	// ...but Final reports it if the floor was missed.
	if got := w.Final(r, clk.Now()); len(got) != 1 || got[0].Value != 40 {
		t.Fatalf("final check: %+v", got)
	}
	r.Record("ops", AggLast, 150)
	if got := w.Final(r, clk.Now()); len(got) != 0 {
		t.Fatalf("satisfied floor still reported: %+v", got)
	}
	// Nil-safety.
	var nilW *Watch
	if nilW.Eval(r, 0) != nil || nilW.Final(r, 0) != nil || nilW.Breaches() != nil {
		t.Fatal("nil watch not inert")
	}
	if NewWatch(nil).Eval(nil, 0) != nil {
		t.Fatal("nil registry eval not inert")
	}
}

// TestJudge reads each objective kind over one registry and over two: the
// p99 of the merged histogram, the largest point of any series, and the sum
// of the series' last points. A metric no registry has reads 0 with n == 0.
func TestJudge(t *testing.T) {
	clk := clock.NewVirtual()
	a, b := New(trace.NewMetricsOnly(clk)), New(trace.NewMetricsOnly(clk))
	for i := 0; i < 99; i++ {
		a.Store().Observe("stop", 100)
	}
	b.Store().Observe("stop", 1000)
	for _, v := range []int64{3, 9, 2} {
		a.Record("load", AggLast, v)
		clk.Advance(time.Millisecond)
	}
	b.Record("load", AggLast, 5)

	type reading struct{ value, n int64 }
	judge := func(kind SLOKind, metric string, regs ...*Registry) reading {
		v, n := Judge(kind, metric, regs...)
		return reading{v, n}
	}
	for _, c := range []struct {
		what string
		got  reading
		want reading
	}{
		{"p99 of one", judge(SLOP99Under, "stop", a), reading{100, 99}},
		{"max of one", judge(SLOMaxUnder, "load", a), reading{9, 3}},
		{"final of one", judge(SLOFinalAtLeast, "load", a), reading{2, 1}},
		{"max of two", judge(SLOMaxUnder, "load", b, a), reading{9, 4}},
		{"final of two", judge(SLOFinalAtLeast, "load", a, b), reading{7, 2}},
		{"p99 of two, a nil skipped", judge(SLOP99Under, "stop", a, nil, b), reading{767, 100}},
	} {
		if c.got != c.want {
			t.Errorf("%s: (value, n) = %v, want %v", c.what, c.got, c.want)
		}
	}
	// The merged p99 is b's one outlier, the 100th sample, read as its log2
	// bucket's midpoint (767), which a alone never reaches; the fleet
	// snapshot's merge reads the same.
	if got := (&Fleet{regs: []*Registry{a, b}}).MergedHistogram("stop").Quantile(0.99); got != 767 {
		t.Fatalf("fleet merge p99 = %d, Judge read 767", got)
	}
	for _, kind := range []SLOKind{SLOP99Under, SLOMaxUnder, SLOFinalAtLeast} {
		if got := judge(kind, "absent", a, b); got != (reading{}) {
			t.Errorf("%v of an absent metric = %v, want zero", kind, got)
		}
		if got := judge(kind, "stop"); got != (reading{}) {
			t.Errorf("%v over no registry = %v, want zero", kind, got)
		}
	}
}

func TestFleetMergeAndQuantiles(t *testing.T) {
	clk := clock.NewVirtual()
	f := NewFleet()
	a, b := New(trace.NewMetricsOnly(clk)), New(trace.NewMetricsOnly(clk))
	for i := 0; i < 50; i++ {
		a.Store().Observe("stop", 100)
		b.Store().Observe("stop", 10000)
	}
	a.Store().Count("ops", 30)
	b.Store().Count("ops", 12)
	f.Add("a", a)
	f.Add("b", b)
	f.Add("dead", nil) // disabled member merges cleanly
	if got := f.CounterTotal("ops"); got != 42 {
		t.Fatalf("fleet counter total = %d, want 42", got)
	}
	q99 := f.Quantile("stop", 0.99)
	if q99 < 10000/2 || q99 > 10000 {
		t.Fatalf("fleet p99 = %d, want in b's bucket", q99)
	}
	q25 := f.Quantile("stop", 0.25)
	if q25 < 100 || q25 > 200 {
		t.Fatalf("fleet p25 = %d, want in a's bucket", q25)
	}
	if f.MergedHistogram("absent") != nil {
		t.Fatal("absent metric merged to non-nil")
	}
	// Nil fleet is inert.
	var nf *Fleet
	nf.Add("x", a)
	if nf.CounterTotal("ops") != 0 || nf.MergedHistogram("stop") != nil {
		t.Fatal("nil fleet not inert")
	}
	if len(nf.FleetSnapshot().Machines) != 0 {
		t.Fatal("nil fleet snapshot not empty")
	}
}

func TestSnapshotDeterminism(t *testing.T) {
	build := func() *Fleet {
		clk := clock.NewVirtual()
		f := NewFleet()
		for _, name := range []string{"m0", "m1", "m2"} {
			r := New(trace.NewMetricsOnly(clk))
			r.Store().Count("ops", int64(len(name))*7)
			r.Store().Gauge("load", 3)
			for i := int64(0); i < 40; i++ {
				r.Store().Observe("stop", 100+i*13)
				r.Record("window", AggMax, 5+i)
			}
			r.Sample()
			f.Add(name, r)
		}
		return f
	}
	var one, two bytes.Buffer
	if err := WriteJSON(&one, build().FleetSnapshot()); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&two, build().FleetSnapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), two.Bytes()) {
		t.Fatal("fleet snapshot not byte-identical across identical runs")
	}
	snap := build().FleetSnapshot()
	if len(snap.Machines) != 3 || len(snap.Merged) != 1 || snap.Merged[0].Count != 120 {
		t.Fatalf("snapshot shape: machines=%d merged=%+v", len(snap.Machines), snap.Merged)
	}
}

func TestPrometheusExposition(t *testing.T) {
	clk := clock.NewVirtual()
	r := New(trace.NewMetricsOnly(clk))
	r.Store().Count("ckpt.total", 9)
	r.Store().Gauge("load", 2)
	r.Store().Observe("stop", 700)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf, "m0"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE aurora_ckpt_total counter",
		`aurora_ckpt_total{machine="m0"} 9`,
		"# TYPE aurora_load gauge",
		"# TYPE aurora_stop summary",
		`aurora_stop{machine="m0",quantile="0.99"} 700`,
		`aurora_stop_count{machine="m0"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Unlabeled form.
	buf.Reset()
	if err := r.WritePrometheus(&buf, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "aurora_ckpt_total 9") {
		t.Fatalf("unlabeled exposition:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `aurora_stop{quantile="0.5"} 700`) {
		t.Fatalf("unlabeled summary:\n%s", buf.String())
	}
}

// TestFleetPrometheusOneHeaderPerFamily parses the fleet exposition the way
// a strict scraper does: a metric family has exactly one # TYPE line, and
// every sample belongs to the family whose header came last. The parent
// wrote the header once per machine.
func TestFleetPrometheusOneHeaderPerFamily(t *testing.T) {
	clk := clock.NewVirtual()
	f := NewFleet()
	for i, name := range []string{"m0", "m1", "m2"} {
		r := New(trace.NewMetricsOnly(clk))
		r.Store().Count("sls.ckpt.total", int64(i+1))
		r.Store().Gauge("fleet.alive", 3)
		r.Store().Observe("sls.stop.ns", int64(1000*(i+1)))
		if i == 1 {
			r.Store().Count("sls.restores", 1) // a family only one machine has
		}
		f.Add(name, r)
	}
	var buf bytes.Buffer
	if err := f.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	family, samples := "", 0
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family, _, _ = strings.Cut(rest, " ")
			if seen[family] {
				t.Fatalf("family %s has a second # TYPE header:\n%s", family, buf.String())
			}
			seen[family] = true
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if name != family && name != family+"_sum" && name != family+"_count" {
			t.Fatalf("sample %q sits under family %q:\n%s", line, family, buf.String())
		}
		samples++
	}
	// 3 counters + 1 restores + 3 gauges + 3 summaries of 5 lines each.
	if len(seen) != 4 || samples != 3+1+3+15 {
		t.Fatalf("families=%d samples=%d:\n%s", len(seen), samples, buf.String())
	}
	if !strings.Contains(buf.String(), `aurora_sls_ckpt_total{machine="m2"} 3`) {
		t.Fatalf("fleet exposition lost a labelled sample:\n%s", buf.String())
	}
}

// TestExportsIgnoreFirstTouchOrder: two goroutines touching the same names
// in opposite orders (simulated threads reach a name whenever the scheduler
// lets them) yield byte-identical JSON and Prometheus output.
func TestExportsIgnoreFirstTouchOrder(t *testing.T) {
	names := []string{"dev.submits", "objstore.data.bytes", "sls.ckpt.total", "net.transfers", "audit.runs"}
	render := func(flip bool) (string, string) {
		clk := clock.NewVirtual()
		r := New(trace.NewMetricsOnly(clk))
		touch := func(order []string) {
			for _, n := range order {
				r.Store().Count(n, 1)
				r.Store().Gauge(n+".level", 2)
				r.Store().Observe(n+".ns", 300)
			}
		}
		rev := slices.Clone(names)
		slices.Reverse(rev)
		first, second := names, rev
		if flip {
			first, second = rev, names
		}
		// The first goroutine finishes before the second starts, so each
		// render has a definite, opposite first-touch order.
		for _, order := range [][]string{first, second} {
			done := make(chan struct{})
			go func() { touch(order); close(done) }()
			<-done
		}
		r.Sample()
		var js, prom bytes.Buffer
		if err := WriteJSON(&js, r.Snapshot("m")); err != nil {
			t.Fatal(err)
		}
		if err := r.WritePrometheus(&prom, "m"); err != nil {
			t.Fatal(err)
		}
		return js.String(), prom.String()
	}
	js1, prom1 := render(false)
	js2, prom2 := render(true)
	if js1 != js2 {
		t.Fatalf("snapshot depends on first-touch order:\n%s\nvs\n%s", js1, js2)
	}
	if prom1 != prom2 {
		t.Fatalf("prometheus text depends on first-touch order:\n%s\nvs\n%s", prom1, prom2)
	}
}

func TestSLOComparisonPerKind(t *testing.T) {
	for _, c := range []struct {
		kind         SLOKind
		below, equal bool // Holds for bound-1 and for bound
		op           string
	}{
		{SLOP99Under, true, false, "<"},
		{SLOMaxUnder, true, false, "<"},
		{SLOFinalAtLeast, false, true, ">="},
	} {
		if got := c.kind.Holds(9, 10); got != c.below {
			t.Errorf("%s holds 9 against 10 = %v", c.kind, got)
		}
		if got := c.kind.Holds(10, 10); got != c.equal {
			t.Errorf("%s holds 10 against 10 = %v", c.kind, got)
		}
		if c.kind.Holds(11, 10) == c.below {
			t.Errorf("%s judges 11 like 9 against 10", c.kind)
		}
		b := Breach{SLO: "r", Metric: "m", Kind: c.kind.String(), At: time.Millisecond, Value: 7, Bound: 10}
		if b.SLOKind() != c.kind {
			t.Errorf("breach of %s reads back as %s", c.kind, b.SLOKind())
		}
		want := "slo r: m " + c.kind.String() + " " + c.op + " 10 violated (value 7) at 1ms"
		if got := b.String(); got != want {
			t.Errorf("breach renders %q, want %q", got, want)
		}
	}
	odd := Breach{SLO: "r", Metric: "m", Kind: "odd", Value: 3, Bound: 2}
	if got := odd.String(); got != "slo r: m odd < 2 violated (value 3) at 0s" {
		t.Errorf("unknown kind renders %q", got)
	}
	if odd.SLOKind().Holds(odd.Value, odd.Bound) {
		t.Error("an unknown kind is not judged as an under kind")
	}
}

// TestBreachTimeIsInNanoseconds pins the unit the artifact's breach time
// carries: At is a time.Duration, so its JSON key says ns.
func TestBreachTimeIsInNanoseconds(t *testing.T) {
	b, err := json.Marshal(Breach{SLO: "r", Metric: "m", Kind: "p99-under", At: 1500 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"at_ns":1500000`) {
		t.Fatalf("breach marshals as %s, want \"at_ns\":1500000", b)
	}
}

// TestSeriesPointTimeIsInNanoseconds pins the unit a series point's time
// carries: T is a time.Duration, so its JSON key says ns, as Breach.At's does.
func TestSeriesPointTimeIsInNanoseconds(t *testing.T) {
	b, err := json.Marshal(Point{T: 1500 * time.Microsecond, V: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"t_ns":1500000`) {
		t.Fatalf("point marshals as %s, want \"t_ns\":1500000", b)
	}
}

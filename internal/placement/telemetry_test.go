package placement

// Observability tests: an instrumented coordinator turns placement
// decisions into fleet-lane spans, fleet counters, and a failover-latency
// histogram, and the kill -> failover -> promote chain is stitched across
// machine tracks by matching flow ids.

import (
	"strings"
	"testing"
	"time"

	"aurora"
	"aurora/internal/clock"
	"aurora/internal/telemetry"
	"aurora/internal/trace"
)

// newTracedFleet is newFleet with tracing and telemetry enabled on every
// machine and the coordinator instrumented.
func newTracedFleet(t *testing.T, n int, cfg Config) (*fleet, *trace.Tracer) {
	t.Helper()
	f := &fleet{clk: clock.NewVirtual(), procs: make(map[string]*aurora.Proc)}
	f.c = New(f.clk, cfg)
	for i := 0; i < n; i++ {
		name := "aur" + string(rune('0'+i))
		m, err := aurora.NewMachine(aurora.Config{
			Name: name, StorageBytes: 64 << 20, Clock: f.clk,
			Trace: true, Telemetry: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.c.AddMachine(name, m); err != nil {
			t.Fatal(err)
		}
		f.ms = append(f.ms, m)
		f.names = append(f.names, name)
	}
	tr := trace.New(f.clk)
	f.c.Instrument(tr)
	return f, tr
}

func findEvent(evs []trace.Event, name string) (trace.Event, bool) {
	for _, ev := range evs {
		if ev.Name == name {
			return ev, true
		}
	}
	return trace.Event{}, false
}

func flowArg(ev trace.Event, key string) (int64, bool) {
	for _, a := range ev.Args {
		if a.Key == key {
			return a.Int, true
		}
	}
	return 0, false
}

func TestFailoverSpansAndFlowChain(t *testing.T) {
	f, tr := newTracedFleet(t, 3, Config{
		SyncEvery:      2 * time.Millisecond,
		HeartbeatEvery: 1 * time.Millisecond,
	})
	f.start(t, "g0", 0)
	f.run(t, 10, time.Millisecond)

	killAt := f.clk.Now()
	if err := f.c.KillMachine("aur0"); err != nil {
		t.Fatal(err)
	}
	evs := f.run(t, 20, time.Millisecond)
	var failedOver bool
	for _, e := range evs {
		if e.Kind == EvFailover {
			failedOver = true
		}
	}
	if !failedOver {
		t.Fatal("no failover after kill")
	}

	// The coordinator's lane carries the decision spans.
	fo, ok := findEvent(tr.Events(), "fleet.failover")
	if !ok {
		t.Fatal("no fleet.failover span on coordinator tracer")
	}
	if fo.Track != trace.TrackFleet {
		t.Fatalf("fleet.failover on track %v, want fleet", fo.Track)
	}
	if _, ok := findEvent(tr.Events(), "fleet.heartbeat"); !ok {
		t.Fatal("no fleet.heartbeat span")
	}
	if _, ok := findEvent(tr.Events(), "fleet.dead"); !ok {
		t.Fatal("no fleet.dead instant")
	}

	// The flow chain: failover span carries flow_out, the promoted
	// machine's tracer carries the matching flow_in.
	out, ok := flowArg(fo, trace.FlowOut)
	if !ok {
		t.Fatal("fleet.failover span has no flow_out")
	}
	a, _ := f.c.Assignment("g0")
	newPrimary, _ := f.c.Node(a.Primary)
	promote, ok := findEvent(newPrimary.M.Tracer.Events(), "fleet.promote")
	if !ok {
		t.Fatalf("no fleet.promote instant on promoted machine %s", a.Primary)
	}
	in, ok := flowArg(promote, trace.FlowIn)
	if !ok {
		t.Fatal("fleet.promote has no flow_in")
	}
	if in != out {
		t.Fatalf("flow ids disagree: out=%d in=%d", out, in)
	}

	// Fleet metrics: death + failover counters, latency histogram anchored
	// at the ground-truth kill time.
	if got := tr.CounterValue("fleet.deaths"); got != 1 {
		t.Fatalf("fleet.deaths = %d, want 1", got)
	}
	if got := tr.CounterValue("fleet.failovers"); got != 1 {
		t.Fatalf("fleet.failovers = %d, want 1", got)
	}
	if got := tr.CounterValue("fleet.reseeds"); got < 2 {
		t.Fatalf("fleet.reseeds = %d, want >= 2 (initial seed + post-failover)", got)
	}
	h := tr.HistogramCopy("fleet.failover.ns")
	if h == nil || h.Samples() != 1 {
		t.Fatalf("fleet.failover.ns samples = %v, want 1", h)
	}
	if fo.Start < killAt {
		t.Fatalf("failover span at %v predates kill at %v", fo.Start, killAt)
	}
	// Detection needs DeadAfterMisses probes, so the measured latency must
	// cover at least that window.
	minLat := int64(time.Duration(f.c.cfg.DeadAfterMisses) * f.c.cfg.HeartbeatEvery)
	if q := h.Quantile(1); q < minLat/2 {
		t.Fatalf("failover latency %d too small for a %d-miss detector", q, f.c.cfg.DeadAfterMisses)
	}
}

func TestStatusRendersSLOBreaches(t *testing.T) {
	f, tr := newTracedFleet(t, 2, Config{})
	reg := telemetry.New(tr)
	f.start(t, "g0", 0)
	w := telemetry.NewWatch([]telemetry.SLO{
		{Name: "ops-max", Metric: "ops", Kind: telemetry.SLOMaxUnder, Bound: 5},
	})
	f.c.WatchSLO(w)
	if !strings.Contains(f.c.Status(), "slo: 0 breaches") {
		t.Fatalf("status missing clean slo line:\n%s", f.c.Status())
	}
	reg.Record("ops", telemetry.AggMax, 9)
	w.Eval(reg, f.clk.Now())
	st := f.c.Status()
	if !strings.Contains(st, "slo: 1 breaches") || !strings.Contains(st, "ops-max") {
		t.Fatalf("status missing breach:\n%s", st)
	}
}

func TestLoadGaugesTrackPrimaries(t *testing.T) {
	f, tr := newTracedFleet(t, 2, Config{HeartbeatEvery: time.Millisecond})
	f.start(t, "g0", 0)
	f.run(t, 3, time.Millisecond)
	if got := tr.GaugeValue("fleet.alive"); got != 2 {
		t.Fatalf("fleet.alive = %d, want 2", got)
	}
	if got := tr.GaugeValue("fleet.load.aur0"); got <= 0 {
		t.Fatalf("fleet.load.aur0 = %d, want > 0", got)
	}
	if got := tr.GaugeValue("fleet.load.aur1"); got != 0 {
		t.Fatalf("fleet.load.aur1 = %d, want 0 (standby only)", got)
	}
}

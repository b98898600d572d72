package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// smoke runs one workload at smoke scale and returns its report.
func smoke(t *testing.T, name string, seed int64, traced bool) *report {
	t.Helper()
	sz, err := sizesFor("smoke", runSeconds)
	if err != nil {
		t.Fatal(err)
	}
	return smokeSized(t, name, seed, traced, sz)
}

func smokeSized(t *testing.T, name string, seed int64, traced bool, sz sizes) *report {
	t.Helper()
	wl, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	rep, err := execute(wl, seed, sz, traced, time.Now().Add(time.Minute), filepath.Join(t.TempDir(), "trace.json"))
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("%s seed %d: failed %d of %d: %s", name, seed, rep.Failed, rep.Attempted, rep.FirstFail)
	}
	return rep
}

// sameExact fails the test for every metric marked exact that differs
// between two reports of the same seed. On a workload declared inexact the
// virtual values must still agree within the tightest end-to-end bound.
func sameExact(t *testing.T, a, b *report) {
	t.Helper()
	for name, ma := range a.Metrics {
		va, vb := ma.Value, b.Metrics[name].Value
		switch {
		case ma.Exact && va != vb:
			t.Errorf("%s %s: %v then %v on the same seed", a.Workload, name, va, vb)
		case a.inexact && ma.Clock == "virt" && math.Abs(va-vb) > boundVirt*math.Abs(va):
			t.Errorf("%s %s: %v then %v on the same seed, more than %v apart", a.Workload, name, va, vb, boundVirt)
		}
	}
}

// Every virtual-clock value and exact count is a pure function of the seed:
// two runs on one seed agree bit for bit, end to end and layer by layer, and
// a second seed moves the metrics fed by each seeded input (the op generator
// or page picker behind virt_ops_per_s and write_amp; on replica-failover
// the wire fault plans behind net.retransmits).
func TestDeterminismAndSeed(t *testing.T) {
	for _, wl := range workloads {
		a, b := smoke(t, wl.name, 1, false), smoke(t, wl.name, 1, false)
		sameExact(t, a, b)
		for _, d := range endToEnd {
			if m := a.Metrics[d.name]; m.Value == 0 {
				t.Errorf("%s %s is 0; every end-to-end metric must be measured on every workload", wl.name, d.name)
			}
		}
		c := smoke(t, wl.name, 2, false)
		for _, name := range []string{"virt_ops_per_s", "write_amp", "virt_lag_us_p99"} {
			if a.Metrics[name].Value == c.Metrics[name].Value {
				t.Errorf("%s %s = %v on seeds 1 and 2: the seed does not reach it", wl.name, name, a.Metrics[name].Value)
			}
		}
		ta := smoke(t, wl.name, 1, true)
		sameExact(t, ta, smoke(t, wl.name, 1, true))
		if wl.name == "replica-failover" {
			if tc := smoke(t, wl.name, 2, true); ta.Metrics["net.retransmits"].Value == tc.Metrics["net.retransmits"].Value {
				t.Errorf("net.retransmits = %v on seeds 1 and 2: the seed does not reach the wire's fault plans", ta.Metrics["net.retransmits"].Value)
			}
		}
	}
}

// What the main loop measures does not depend on the coda: with every coda
// sized to nothing (but for the one sync without which a replication
// episode's content check compares against no shipped image), each figure
// read from the main loop is bit-identical, end to end and layer by layer.
func TestCodaLeavesMainLoopAlone(t *testing.T) {
	bare, err := sizesFor("smoke", runSeconds)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*coda{&bare.mc.coda, &bare.rocks.coda, &bare.wal.coda, &bare.rf.coda} {
		*c = coda{syncs: 1}
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			with, without := smoke(t, wl.name, 1, traced), smokeSized(t, wl.name, 1, traced, bare)
			fromMain := 0
			for name, m := range with.Metrics {
				if m.Phase != "main" {
					continue
				}
				fromMain++
				if got := without.Metrics[name]; m.Exact && (got.Value != m.Value || got.N != m.N || got.Rule != m.Rule || got.Phase != m.Phase) {
					t.Errorf("%s %s: %v (n=%d, %s) with the coda, %v (n=%d, %s of %s) without", wl.name, name, m.Value, m.N, m.Rule, got.Value, got.N, got.Rule, got.Phase)
				}
			}
			if fromMain < 4 {
				t.Errorf("%s traced=%v: only %d metrics come from the main loop", wl.name, traced, fromMain)
			}
		}
	}
}

// The benchmark is one process and joins what it starts: after a run of
// each workload, traced included, no goroutine of ours is left.
func TestNoGoroutineLeft(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, wl := range workloads {
		smoke(t, wl.name, 3, true)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after the runs, %d before:\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}

// A run cut short by its deadline returns errDeadline with a partial
// report, and leaves nothing running either.
func TestDeadlineAborts(t *testing.T) {
	base := runtime.NumGoroutine()
	sz, _ := sizesFor("smoke", runSeconds)
	for _, wl := range workloads {
		rep, err := execute(wl, 1, sz, false, time.Now(), "")
		if !errors.Is(err, errDeadline) {
			t.Fatalf("%s: err = %v, want the deadline", wl.name, err)
		}
		if rep == nil {
			t.Fatalf("%s: no partial report", wl.name)
		}
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after aborted runs, %d before", n, base)
	}
}

// The traced run writes a loadable Chrome trace whose spans nest.
func TestTraceFile(t *testing.T) {
	wl, _ := findWorkload("crash-restore")
	sz, _ := sizesFor("smoke", runSeconds)
	path := filepath.Join(t.TempDir(), "trace.json")
	if _, err := execute(wl, 1, sz, true, time.Now().Add(time.Minute), path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string
			Ts   float64
			Dur  float64
			Args struct{ ID, Parent int }
		}
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range tr.TraceEvents {
		seen[e.Name] = true
		if p := e.Args.Parent; p >= 0 {
			parent := tr.TraceEvents[p]
			if e.Ts < parent.Ts || e.Ts+e.Dur > parent.Ts+parent.Dur+0.001 {
				t.Fatalf("span %s [%v,+%v] is not inside its parent %s [%v,+%v]", e.Name, e.Ts, e.Dur, parent.Name, parent.Ts, parent.Dur)
			}
		}
	}
	for _, want := range []string{sBatch, sCkpt, sBarrier, sCrash, sRestore + ".eager", sRebuild, sVerify, sSync, sFailover, "probe.rec.seal_open_ns"} {
		if !seen[want] {
			t.Errorf("trace has no %s span", want)
		}
	}
}

// BENCHMARK.json is printed from the tables in this package; the committed
// file must be that print.
func TestManifestInStep(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifestJSON()) {
		t.Fatal("BENCHMARK.json differs from `bench -manifest`; regenerate it")
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	a := smoke(t, "wal-commit", 1, false)
	pa, pb := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := a.writeFile(pa); err != nil {
		t.Fatal(err)
	}
	if err := smoke(t, "wal-commit", 1, false).writeFile(pb); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	// Smoke runs are too short for the host bounds to hold; only the exact
	// half of the comparison is under test here.
	if code := compareReports(pa, pb, &out); code != 0 && strings.Contains(out.String(), "limit exact  BREACH") {
		t.Fatalf("same seed, same commit breached an exact metric:\n%s", out.String())
	}
	m := a.Metrics["virt_stop_us_p99"]
	m.Value *= 1.5
	a.Metrics["virt_stop_us_p99"] = m
	if err := a.writeFile(pb); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := compareReports(pa, pb, &out); code != 1 || !strings.Contains(out.String(), "virt_stop_us_p99") {
		t.Fatalf("a 50%% worse stop time passed (exit %d):\n%s", code, out.String())
	}
}

func TestHistogram(t *testing.T) {
	for _, v := range []int64{0, 1, 1023, 1024, 1025, 4415, 1 << 20, 1<<40 + 12345} {
		lo, hi := histBounds(histBucket(v))
		if v < lo || v > hi {
			t.Errorf("%d lands in bucket [%d,%d]", v, lo, hi)
		}
		if w := float64(hi-lo) / float64(v+1); w > 0.001 {
			t.Errorf("bucket of %d is %.4f of it wide, want under 0.1 %%", v, w)
		}
	}
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v)
	}
	if got := h.quantile(0.99); got < 98900 || got > 99100 {
		t.Errorf("p99 of 1..100000 = %v", got)
	}
}

// A tail is the target percentile when ten samples lie beyond it, else the
// highest rank that has ten beyond it, and never below the median.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n, want int
		label   string
	}{{50000, 49499, "p99"}, {1000, 989, "p99"}, {999, 988, "p99"}, {40, 29, "p75"}, {21, 10, "p52.38"}, {12, 5, "p50"}, {1, 0, "p100"}} {
		if got := tailIndex(c.n, 0.99); got != c.want || ruleLabel(got, c.n) != c.label {
			t.Errorf("tailIndex(%d, 0.99) = %d (%s), want %d (%s)", c.n, got, ruleLabel(got, c.n), c.want, c.label)
		}
	}
}

// A duration is scaled by the midmean kernel time within calibWindow of it,
// widened to the nearest calibMin kernel runs when the window holds fewer.
func TestSlowdownWindow(t *testing.T) {
	var c calibration
	if got := c.slowdown(0, 1); got != 1 {
		t.Fatalf("slowdown with no kernel runs = %v, want 1", got)
	}
	// One kernel run every 50 ms for 2 s: at reference speed in the first
	// second, twice as slow in the second.
	for i := 0; i < 40; i++ {
		ns := float64(calibRefNS)
		if i >= 20 {
			ns *= 2
		}
		c.at, c.ns = append(c.at, float64(i)*50e6), append(c.ns, ns)
	}
	for _, tc := range []struct{ t0, t1, want float64 }{
		{400e6, 410e6, 1},    // window [300, 510] ms: five quiet runs
		{1500e6, 1510e6, 2},  // five slow ones
		{-5e9, -4e9, 1},      // long before the first run: the nearest five
		{9e9, 9.1e9, 2},      // long after the last
		{0, 1.95e9, 1.5},     // the whole record: half quiet, half slow
		{900e6, 1090e6, 1.5}, // eight runs across the change: the middle four are two of each
	} {
		if got := c.slowdown(tc.t0, tc.t1); got != tc.want {
			t.Errorf("slowdown(%v, %v) = %v, want %v", tc.t0, tc.t1, got, tc.want)
		}
	}
	r := &series{}
	r.add(1500e6, 3e6, 0)
	if got := c.scaled(r); len(got) != 1 || got[0] != 1.5e6 {
		t.Errorf("a 3 ms call in the slow second scales to %v, want 1.5 ms", got)
	}
}

// The midmean is the mean of the samples between the quartiles.
func TestMidmean(t *testing.T) {
	for _, c := range []struct {
		vs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{9, 1}, 5},
		{[]float64{1000, 2, 4, 3}, 3.5},            // a quarter dropped either side
		{[]float64{5, 1, 2, 3, 4, 100, 6, 7}, 4.5}, // 3, 4, 5, 6
		{[]float64{1, 2, 3, 4, 5}, 3},              // 2, 3, 4
	} {
		if got := midmean(append([]float64(nil), c.vs...)); got != c.want {
			t.Errorf("midmean(%v) = %v, want %v", c.vs, got, c.want)
		}
	}
}

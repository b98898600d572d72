package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aurora"
	"aurora/internal/sls"
)

// quickRuns memoises one Quick run per experiment for the whole test binary:
// the shape tests and TestQuickRowsPinned read the same rows, so the package
// pays for each experiment once.
var quickRuns = map[string]any{}

// quickRun returns the named experiment's Quick result, running it on first
// use.
func quickRun[T any](t *testing.T, name string, fn func(Scale) (T, error)) T {
	t.Helper()
	if r, ok := quickRuns[name]; ok {
		return r.(T)
	}
	r, err := fn(Quick)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	quickRuns[name] = r
	return r
}

// TestQuickRowsPinned holds every deterministic row the experiments render at
// Quick scale to testdata/quick.golden, one section per experiment in
// slsbench's order. The rows are virtual time, so a moved row means the
// simulated machine or the experiment changed: say which, and why, beside the
// edit to the golden.
//
// The golden is "## <section>" lines, each followed by that experiment's
// rendered table and one blank line.
func TestQuickRowsPinned(t *testing.T) {
	sections := []struct {
		name string
		r    interface{ Render() string }
	}{
		{"table1", quickRun(t, "table1", Table1)},
		{"fig3a", quickRun(t, "fig3a", Fig3a)},
		{"fig3b", quickRun(t, "fig3b", Fig3b)},
		{"fig3c", quickRun(t, "fig3c", Fig3c)},
		{"fig3d", quickRun(t, "fig3d", Fig3d)},
		{"table4", quickRun(t, "table4", func(Scale) (Table4Result, error) { return Table4() })},
		{"table5", quickRun(t, "table5", Table5)},
		{"table6", quickRun(t, "table6", Table6)},
		{"fig4", quickRun(t, "fig4", Fig4)},
		{"fig5", quickRun(t, "fig5", Fig5)},
		{"fig6", quickRun(t, "fig6", Fig6)},
		{"table7", quickRun(t, "table7", Table7)},
		{"repl", quickRun(t, "repl", Replication)},
		{"walwindow", quickRun(t, "walwindow", WALWindow)},
		{"fleet", quickRun(t, "fleet", Fleet)},
		{"restore", quickRun(t, "restore", RestoreBench)},
	}
	blob, err := os.ReadFile(filepath.Join("testdata", "quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, sec := range strings.Split(string(blob), "## ")[1:] {
		name, body, _ := strings.Cut(sec, "\n")
		want[name] = body
	}
	if len(want) != len(sections) {
		t.Errorf("quick.golden has %d sections, the test renders %d", len(want), len(sections))
	}
	for _, s := range sections {
		if got := s.r.Render() + "\n"; got != want[s.name] {
			t.Errorf("%s moved:\n--- got\n%s--- quick.golden\n%s", s.name, got, want[s.name])
		}
	}
}

// TestWALWindowFootprint holds walwindow's full-epoch footprint flat as the
// run doubles. On the machine users boot every index carries the flight
// ring (≈ 10 KB once full) beside the store's free map and deadlist, and
// the store retains 64 epochs, each with its index. The index settles at
// its steady size once the ring is full and the deadlist steady (≈ 80
// commits), so the footprint is flat once all 64 retained indexes have that
// size, from ≈ 150 rounds on. "Used end" (blocks allocated minus freed) must
// be the same at 256 and 512 rounds, and so must retention and the
// deadlist; the free map's run count stays bounded, so the index does not
// grow either.
func TestWALWindowFootprint(t *testing.T) {
	type footprint struct {
		used, runs, dead int64
		retained         int
	}
	run := func(rounds int) footprint {
		m, err := aurora.NewMachine(aurora.Config{StorageBytes: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		row, err := walWindowRun(m, "full epoch", sls.CkptIncremental, 0, rounds)
		if err != nil {
			t.Fatal(err)
		}
		if problems := m.Store.AuditLive(); len(problems) > 0 {
			t.Fatalf("%d rounds: %v", rounds, problems)
		}
		if rep := m.Audit(); !rep.OK() {
			t.Fatalf("%d rounds: %s", rounds, rep)
		}
		return footprint{row.UsedEnd, int64(m.Store.FreeRuns()), int64(m.Store.DeadBlocks()), len(m.History())}
	}
	a, b := run(256), run(512)
	t.Logf("256 -> 512 rounds: used %d -> %d blocks, free map %d -> %d runs", a.used, b.used, a.runs, b.runs)
	if a.retained != b.retained || a.dead != b.dead {
		t.Errorf("retention moved with the run: %d epochs / %d dead blocks at 256 rounds, %d / %d at 512",
			a.retained, a.dead, b.retained, b.dead)
	}
	if a.used != b.used {
		t.Errorf("used end grew with the run: %d blocks at 256 rounds, %d at 512", a.used, b.used)
	}
	if b.runs > 64 {
		t.Errorf("free map fragmented: %d runs after 512 rounds", b.runs)
	}
}

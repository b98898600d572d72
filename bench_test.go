package aurora_test

// One benchmark per table and figure of the paper's evaluation (§9). Each
// runs the corresponding experiment harness at Quick scale and reports the
// headline quantity as custom benchmark metrics (virtual time or virtual
// throughput), alongside the real wall-time cost of the simulation itself.
// Run the full-scale versions with: go run ./cmd/slsbench all
//
// Ablation benchmarks at the bottom measure the design choices DESIGN.md
// calls out: collapse direction, lazy vs eager restore, external synchrony,
// and inode-reference vs path-lookup vnode checkpointing.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"aurora"
	"aurora/internal/experiments"
	"aurora/internal/kern"
	"aurora/internal/vm"
)

// metric builds a ReportMetric unit from free-form labels (no whitespace).
func metric(parts ...string) string {
	s := strings.Join(parts, "-")
	s = strings.ReplaceAll(s, " ", "_")
	return s
}

// BenchmarkTable1CRIU reports the CRIU stop time for the Redis dump.
func BenchmarkTable1CRIU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.CRIU.TotalStopTime.Microseconds()), "stop-us")
		b.ReportMetric(float64(r.CRIU.IOWriteTime.Microseconds()), "iowrite-us")
	}
}

func benchFig3(b *testing.B, fn func(experiments.Scale) (experiments.Fig3Result, error)) {
	for i := 0; i < b.N; i++ {
		r, err := fn(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		for wl, byFS := range r.Results {
			for fs, res := range byFS {
				b.ReportMetric(res.OpsPerSec(), metric(wl, fs, "ops/s"))
			}
		}
	}
}

// BenchmarkFig3a reports 64 KiB write throughput per file system.
func BenchmarkFig3a(b *testing.B) { benchFig3(b, experiments.Fig3a) }

// BenchmarkFig3b reports 4 KiB write throughput per file system.
func BenchmarkFig3b(b *testing.B) { benchFig3(b, experiments.Fig3b) }

// BenchmarkFig3c reports createfiles and write+fsync ops/s per file system.
func BenchmarkFig3c(b *testing.B) { benchFig3(b, experiments.Fig3c) }

// BenchmarkFig3d reports fileserver/varmail/webserver ops/s per file system.
func BenchmarkFig3d(b *testing.B) { benchFig3(b, experiments.Fig3d) }

// BenchmarkTable4 reports per-object checkpoint/restore microseconds.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table4()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			b.ReportMetric(float64(row.Checkpoint.Nanoseconds())/1e3, metric(row.Object, "ckpt-us"))
		}
	}
}

// BenchmarkTable5 reports stop time per API mode at 4 KiB and 16 MiB.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table5(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
		b.ReportMetric(float64(first.Incremental.Microseconds()), "4Ki-incr-us")
		b.ReportMetric(float64(first.Journaled.Microseconds()), "4Ki-journal-us")
		b.ReportMetric(float64(last.Incremental.Microseconds()), "16Mi-incr-us")
	}
}

// BenchmarkTable6 reports checkpoint stop times for the application profiles.
func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table6(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			b.ReportMetric(float64(row.CkptIncr.Microseconds()), metric(row.App, "incr-us"))
			b.ReportMetric(float64(row.RestoreLazy.Microseconds()), metric(row.App, "lazy-us"))
		}
	}
}

// BenchmarkFig4 reports Memcached throughput at baseline, 10 ms, and 100 ms.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range r.Points {
			label := "baseline"
			if pt.PeriodMS > 0 {
				label = fmt.Sprintf("%dms", pt.PeriodMS)
			}
			b.ReportMetric(pt.Throughput, metric(label, "ops/s"))
		}
	}
}

// BenchmarkFig5 reports Memcached pegged-load latency per period.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range r.Points {
			label := "baseline"
			if pt.PeriodMS > 0 {
				label = fmt.Sprintf("%dms", pt.PeriodMS)
			}
			b.ReportMetric(float64(pt.AvgLatency.Microseconds()), metric(label, "avg-us"))
		}
	}
}

// BenchmarkFig6 reports RocksDB throughput per configuration.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			b.ReportMetric(row.Throughput, metric(row.Config.String(), "ops/s"))
		}
	}
}

// BenchmarkTable7 reports the three checkpointers' stop times.
func BenchmarkTable7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table7(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.AuroraStop.Microseconds()), "aurora-stop-us")
		b.ReportMetric(float64(r.CRIU.TotalStopTime.Microseconds()), "criu-stop-us")
		b.ReportMetric(float64(r.RDBStop.Microseconds()), "rdb-stop-us")
	}
}

// --- Ablations ---

// buildShadowed creates a map with a large base, one dirty page, and a
// frozen shadow ready to collapse.
func buildShadowed(b *testing.B, basePages int) (*aurora.Machine, []vm.ShadowPair) {
	b.Helper()
	m, err := aurora.NewMachine(aurora.Defaults())
	if err != nil {
		b.Fatal(err)
	}
	p := m.Spawn("ablate")
	va, err := p.Mmap(int64(basePages)*aurora.PageSize, aurora.ProtRead|aurora.ProtWrite, false)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, aurora.PageSize)
	for i := 0; i < basePages; i++ {
		if err := p.WriteMem(va+uint64(i)*aurora.PageSize, buf); err != nil {
			b.Fatal(err)
		}
	}
	vm.SystemShadow(m.K.VM, []*vm.Map{p.Mem}, nil)
	if err := p.WriteMem(va, buf); err != nil { // one dirty page in S1
		b.Fatal(err)
	}
	pairs := vm.SystemShadow(m.K.VM, []*vm.Map{p.Mem}, nil)
	return m, pairs
}

// BenchmarkAblationCollapseReverse measures Aurora's collapse direction
// (move the shadow's few pages down) on a 4096-page base with 1 dirty page.
// ns/op includes the structure build; the collapse itself is reported as
// the pages it moves (it charges no virtual time: it overlaps execution).
func BenchmarkAblationCollapseReverse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, pairs := buildShadowed(b, 4096)
		b.ReportMetric(float64(vm.CollapseAurora(pairs[0].Live, pairs[0].Frozen)), "pages-moved")
	}
}

// BenchmarkAblationCollapseLegacy measures the original Mach direction
// (move the parent's many pages up) on the identical structure.
func BenchmarkAblationCollapseLegacy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, pairs := buildShadowed(b, 4096)
		b.ReportMetric(float64(vm.CollapseLegacy(pairs[0].Live, pairs[0].Frozen)), "pages-moved")
	}
}

// benchRestore measures eager vs lazy restore of a 64 MiB process. ns/op
// includes building and checkpointing the process; the restore itself is
// the virtual-us metric.
func benchRestore(b *testing.B, lazy bool) {
	for i := 0; i < b.N; i++ {
		m, _ := aurora.NewMachine(aurora.Defaults())
		p := m.Spawn("app")
		va, _ := p.Mmap(64<<20, aurora.ProtRead|aurora.ProtWrite, false)
		buf := make([]byte, aurora.PageSize)
		for pg := 0; pg < (64<<20)/aurora.PageSize; pg++ {
			p.WriteMem(va+uint64(pg)*aurora.PageSize, buf[:1])
		}
		g, _ := m.Attach("app", p)
		if _, err := g.Checkpoint(aurora.CkptIncremental); err != nil {
			b.Fatal(err)
		}
		m2, err := m.Crash()
		if err != nil {
			b.Fatal(err)
		}
		var rst aurora.RestoreStats
		if lazy {
			_, rst, err = m2.RestoreLazily("app")
		} else {
			_, rst, err = m2.Restore("app")
		}
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rst.Time.Microseconds()), "virtual-us")
	}
}

// BenchmarkAblationRestoreEager measures a full (eager) 64 MiB restore.
func BenchmarkAblationRestoreEager(b *testing.B) { benchRestore(b, false) }

// BenchmarkAblationRestoreLazy measures a lazy 64 MiB restore.
func BenchmarkAblationRestoreLazy(b *testing.B) { benchRestore(b, true) }

// vnodePathLookup is one namei/name-cache path lookup: what checkpointing a
// vnode by path would add over the inode reference the product uses (§5.2).
// Only the ablation below charges it.
const vnodePathLookup = 2500 * time.Nanosecond

// BenchmarkAblationVnodeByPath measures what vnode checkpointing would cost
// with namei path lookups instead of inode references (§5.2's optimization),
// comparing the charged virtual time of both strategies over 100 vnodes.
func BenchmarkAblationVnodeByPath(b *testing.B) {
	m, _ := aurora.NewMachine(aurora.Defaults())
	p := m.Spawn("files")
	for i := 0; i < 100; i++ {
		if _, err := p.Open(fmt.Sprintf("/f%03d", i), aurora.ORead|aurora.OWrite, true); err != nil {
			b.Fatal(err)
		}
	}
	g, _ := m.Attach("files", p)
	g.Checkpoint(aurora.CkptIncremental)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := g.Checkpoint(aurora.CkptIncremental)
		if err != nil {
			b.Fatal(err)
		}
		byRef := st.OSTime
		// The path-lookup alternative adds a namei per vnode.
		byPath := byRef + 100*vnodePathLookup
		b.ReportMetric(float64(byRef.Microseconds()), "inode-ref-us")
		b.ReportMetric(float64(byPath.Microseconds()), "path-lookup-us")
	}
}

// BenchmarkAblationExternalSynchrony measures the latency a cross-group
// message pays for external synchrony versus an fdctl-exempted socket.
func BenchmarkAblationExternalSynchrony(b *testing.B) {
	for _, es := range []bool{true, false} {
		name := "enabled"
		if !es {
			name = "fdctl-disabled"
		}
		b.Run(name, func(b *testing.B) {
			m, _ := aurora.NewMachine(aurora.Defaults())
			app := m.Spawn("app")
			ext := m.Spawn("client")
			g, _ := m.Attach("app", app)
			efd, _ := ext.Socket(kern.KindSocketUDP)
			ext.Bind(efd, "10.0.0.9:1")
			afd, _ := app.Socket(kern.KindSocketUDP)
			app.Bind(afd, "10.0.0.1:1")
			if !es {
				if err := g.FdCtl(app, afd, true); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			var total time.Duration
			for i := 0; i < b.N; i++ {
				sent := m.Now()
				app.SendTo(afd, "10.0.0.9:1", []byte("response"))
				if es {
					if _, err := g.Checkpoint(aurora.CkptIncremental); err != nil {
						b.Fatal(err)
					}
					if err := g.Barrier(); err != nil {
						b.Fatal(err)
					}
				}
				buf := make([]byte, 16)
				if _, err := ext.Read(efd, buf); err != nil {
					b.Fatal(err)
				}
				total += m.Now() - sent
			}
			b.ReportMetric(float64(total.Microseconds())/float64(b.N), "virtual-us/msg")
		})
	}
}

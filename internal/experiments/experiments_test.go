package experiments

import (
	"strings"
	"testing"
	"time"
)

// The experiment tests run at Quick scale and assert the paper's claims —
// who wins and by roughly what factor — rather than absolute numbers.

func TestTable1Shape(t *testing.T) {
	r := quickRun(t, "table1", Table1)
	c := r.CRIU
	// Memory copy dominates OS state; total stop covers both; IO write
	// is substantial. (Paper: 49 / 413 / 462 / 350 ms at 500 MB.)
	if c.MemoryTime <= c.OSStateTime {
		t.Errorf("memory copy %v <= OS state %v", c.MemoryTime, c.OSStateTime)
	}
	if c.TotalStopTime < c.MemoryTime {
		t.Errorf("total stop %v < memory %v", c.TotalStopTime, c.MemoryTime)
	}
	if c.IOWriteTime <= 0 {
		t.Error("no IO write time")
	}
	if !strings.Contains(r.Render(), "Total Stop Time") {
		t.Error("render missing rows")
	}
}

func TestTable7Shape(t *testing.T) {
	r := quickRun(t, "table7", Table7)
	// Aurora stop is orders of magnitude below CRIU's.
	if !(r.AuroraStop*20 < r.CRIU.TotalStopTime) {
		t.Errorf("Aurora stop %v not >>20x below CRIU %v", r.AuroraStop, r.CRIU.TotalStopTime)
	}
	// Aurora writes the checkpoint faster than CRIU writes its image.
	if !(r.AuroraWrite < r.CRIU.IOWriteTime) {
		t.Errorf("Aurora write %v >= CRIU write %v", r.AuroraWrite, r.CRIU.IOWriteTime)
	}
	// RDB's fork stop beats CRIU but loses to Aurora; its serialized
	// write is slower than Aurora's.
	if !(r.AuroraStop < r.RDBStop && r.RDBStop < r.CRIU.TotalStopTime) {
		t.Errorf("stop ordering: aurora %v, rdb %v, criu %v", r.AuroraStop, r.RDBStop, r.CRIU.TotalStopTime)
	}
	if !(r.AuroraWrite < r.RDBWrite) {
		t.Errorf("write: aurora %v >= rdb %v", r.AuroraWrite, r.RDBWrite)
	}
	if !strings.Contains(r.Render(), "Aurora") {
		t.Error("render missing columns")
	}
}

func TestTable4Shape(t *testing.T) {
	r := quickRun(t, "table4", func(Scale) (Table4Result, error) { return Table4() })
	byName := map[string]Table4Row{}
	for _, row := range r.Rows {
		byName[row.Object] = row
	}
	// Kqueue with 1024 events is the most expensive checkpoint.
	kq := byName["Kqueue w/1024 events"]
	for _, row := range r.Rows {
		if row.Object != kq.Object && row.Checkpoint >= kq.Checkpoint {
			t.Errorf("%s checkpoint %v >= kqueue %v", row.Object, row.Checkpoint, kq.Checkpoint)
		}
	}
	// SysV shm costs more to checkpoint than POSIX shm (namespace scan).
	if byName["Shared Memory (SysV)"].Checkpoint <= byName["Shared Memory (POSIX)"].Checkpoint {
		t.Errorf("SysV %v <= POSIX %v", byName["Shared Memory (SysV)"].Checkpoint, byName["Shared Memory (POSIX)"].Checkpoint)
	}
	// PTY restore is the slowest restore (devfs locking).
	pty := byName["Pseudoterminals"]
	for _, row := range r.Rows {
		if row.Object != pty.Object && row.Restore >= pty.Restore {
			t.Errorf("%s restore %v >= pty %v", row.Object, row.Restore, pty.Restore)
		}
	}
	// Kqueue restores far faster than it checkpoints.
	if kq.Restore*2 > kq.Checkpoint {
		t.Errorf("kqueue restore %v not << checkpoint %v", kq.Restore, kq.Checkpoint)
	}
	t.Log("\n" + r.Render())
}

func TestTable5Shape(t *testing.T) {
	r := quickRun(t, "table5", Table5)
	rows := r.Rows
	// Journaled is the fastest strategy up to 64 KiB; asynchronous
	// approaches win for large sizes.
	for _, row := range rows {
		switch {
		case row.Size <= 64<<10:
			if !(row.Journaled < row.Atomic && row.Journaled < row.Incremental) {
				t.Errorf("%s: journaled %v not fastest (atomic %v, incr %v)",
					fmtBytes(row.Size), row.Journaled, row.Atomic, row.Incremental)
			}
		case row.Size >= 1<<20:
			if !(row.Atomic < row.Journaled && row.Incremental < row.Journaled) {
				t.Errorf("%s: async not faster (incr %v atomic %v journ %v)",
					fmtBytes(row.Size), row.Incremental, row.Atomic, row.Journaled)
			}
		}
		// Atomic checkpointing skips the full-quiesce floor.
		if !(row.Atomic < row.Incremental) {
			t.Errorf("%s: atomic %v >= incremental %v", fmtBytes(row.Size), row.Atomic, row.Incremental)
		}
	}
	// Stop time scales roughly linearly with the dirty set at the top end.
	first, last := rows[0], rows[len(rows)-1]
	if !(last.Incremental > first.Incremental) {
		t.Errorf("incremental not scaling: %v .. %v", first.Incremental, last.Incremental)
	}
	// The 4 KiB incremental floor sits near the paper's 185 us.
	if first.Incremental < 120*time.Microsecond || first.Incremental > 300*time.Microsecond {
		t.Errorf("4 KiB incremental = %v, want ~185 us", first.Incremental)
	}
	// And the 4 KiB journaled append near 28 us.
	if first.Journaled < 20*time.Microsecond || first.Journaled > 40*time.Microsecond {
		t.Errorf("4 KiB journaled = %v, want ~28 us", first.Journaled)
	}
	t.Log("\n" + r.Render())
}

func TestTable6Shape(t *testing.T) {
	byApp := map[string]Table6Row{}
	for _, row := range quickRun(t, "table6", Table6).Rows {
		byApp[row.App] = row
	}
	vim, tomcat := byApp["vim"], byApp["tomcat"]
	// OS complexity drives stop time: tomcat (520 entries, 85 threads)
	// stops longer than vim.
	if !(tomcat.CkptIncr > vim.CkptIncr) {
		t.Errorf("tomcat incr %v <= vim %v", tomcat.CkptIncr, vim.CkptIncr)
	}
	// Lazy restore beats full restore; memory restore beats both.
	for _, row := range []Table6Row{vim, tomcat} {
		if !(row.RestoreLazy < row.RestoreFull) {
			t.Errorf("%s: lazy %v >= full %v", row.App, row.RestoreLazy, row.RestoreFull)
		}
		if !(row.RestoreMem <= row.RestoreLazy) {
			t.Errorf("%s: mem %v > lazy %v", row.App, row.RestoreMem, row.RestoreLazy)
		}
		// Incremental (idle) stop is at most the full stop.
		if row.CkptIncr > row.CkptFull {
			t.Errorf("%s: incr %v > full %v", row.App, row.CkptIncr, row.CkptFull)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	r := quickRun(t, "fig4", Fig4)
	byPeriod := map[int]Fig4Point{}
	for _, p := range r.Points {
		byPeriod[p.PeriodMS] = p
	}
	base := byPeriod[0]
	p10, p100 := byPeriod[10], byPeriod[100]
	// Throughput rises with the period and converges toward baseline.
	if !(p10.Throughput < p100.Throughput && p100.Throughput < base.Throughput) {
		t.Errorf("throughput ordering: 10ms=%.0f 100ms=%.0f base=%.0f",
			p10.Throughput, p100.Throughput, base.Throughput)
	}
	// The 10 ms point carries a heavy overhead (paper: up to 82% at the
	// full working set; Quick scale saturates the hot set early, so the
	// bar here is lower — Full-scale numbers live in EXPERIMENTS.md).
	if p10.Throughput > 0.75*base.Throughput {
		t.Errorf("10 ms overhead only %.0f%%", 100*(1-p10.Throughput/base.Throughput))
	}
	// And 100 ms is within striking distance of the baseline (paper: 9%).
	if p100.Throughput < 0.7*base.Throughput {
		t.Errorf("100 ms throughput %.0f too far below baseline %.0f", p100.Throughput, base.Throughput)
	}
	// Latency moves inversely with throughput.
	if !(p10.AvgLatency > p100.AvgLatency) {
		t.Errorf("latency: 10ms %v <= 100ms %v", p10.AvgLatency, p100.AvgLatency)
	}
	t.Log("\n" + r.Render())
}

func TestFig5Shape(t *testing.T) {
	r := quickRun(t, "fig5", Fig5)
	byPeriod := map[int]Fig5Point{}
	for _, p := range r.Points {
		byPeriod[p.PeriodMS] = p
	}
	base, p10, p100 := byPeriod[0], byPeriod[10], byPeriod[100]
	// Baseline sits near the paper's 157 us.
	if base.AvgLatency < 140*time.Microsecond || base.AvgLatency > 220*time.Microsecond {
		t.Errorf("baseline avg = %v, want ~157 us", base.AvgLatency)
	}
	// Persistence adds latency at every period, worst at 10 ms.
	if !(p10.AvgLatency > p100.AvgLatency && p100.AvgLatency > base.AvgLatency) {
		t.Errorf("avg ordering: 10ms=%v 100ms=%v base=%v", p10.AvgLatency, p100.AvgLatency, base.AvgLatency)
	}
	// Tails blow up under checkpointing (the paper's 95th lines).
	if !(p10.P95Latency > 2*base.P95Latency) {
		t.Errorf("10 ms p95 %v not >> baseline %v", p10.P95Latency, base.P95Latency)
	}
	t.Log("\n" + r.Render())
}

func TestFig6Shape(t *testing.T) {
	r := quickRun(t, "fig6", Fig6)
	by := map[string]Fig6Row{}
	for _, row := range r.Rows {
		by[row.Config.String()] = row
	}
	nosync := by["RocksDB"]
	aurora := by["Aurora-100Hz"]
	wal := by["RocksDB+WAL"]
	awal := by["Aurora+WAL"]
	// Headline: the Aurora API beats the built-in WAL (paper: +75%)
	// while providing the same write persistence.
	if !(awal.Throughput > 1.2*wal.Throughput) {
		t.Errorf("Aurora+WAL %.0f not well above RocksDB+WAL %.0f", awal.Throughput, wal.Throughput)
	}
	if !awal.Sync || !wal.Sync || nosync.Sync || aurora.Sync {
		t.Error("sync labels wrong")
	}
	// Transparent checkpointing costs heavily vs ephemeral (paper: -83%).
	if !(aurora.Throughput < 0.6*nosync.Throughput) {
		t.Errorf("Aurora-100Hz %.0f not well below NoSync %.0f", aurora.Throughput, nosync.Throughput)
	}
	// Tail latencies: transparent checkpointing's stop times blow up the
	// tail relative to the ephemeral baseline; and the Aurora build's
	// p99.9 suffers versus the stock WAL because writes that trigger a
	// checkpoint wait for it to complete (the paper's observation).
	if !(aurora.P99 > 10*nosync.P99) {
		t.Errorf("Aurora-100Hz p99 %v not >> NoSync p99 %v", aurora.P99, nosync.P99)
	}
	if !(awal.P999 > wal.P999) {
		t.Errorf("Aurora+WAL p99.9 %v <= RocksDB+WAL p99.9 %v", awal.P999, wal.P999)
	}
	t.Log("\n" + r.Render())
}

func TestFig3Panels(t *testing.T) {
	// The detailed ordering assertions live in internal/filebench; here
	// the harness end-to-end path and rendering are exercised.
	for i, fn := range []func(Scale) (Fig3Result, error){Fig3a, Fig3b, Fig3c, Fig3d} {
		r := quickRun(t, "fig3"+string(rune('a'+i)), fn)
		if len(r.Results) == 0 {
			t.Fatal("no results")
		}
		out := r.Render()
		for _, fs := range FSNames {
			if !strings.Contains(out, fs) {
				t.Errorf("render missing %s:\n%s", fs, out)
			}
		}
	}
}

func TestReplicationShape(t *testing.T) {
	r := quickRun(t, "repl", Replication)
	byName := map[string]ReplRow{}
	for _, row := range r.Rows {
		byName[row.Config] = row
	}
	direct, clean := byName["direct"], byName["clean wire"]
	lossy, heavy := byName["drop 2%"], byName["drop 10%"]
	part := byName["1s partition + resume"]

	// Every configuration ships the same checkpoints: the stream byte
	// totals agree and each run lands all its syncs.
	for _, row := range r.Rows {
		if row.StreamBytes != direct.StreamBytes {
			t.Errorf("%s shipped %d stream bytes, direct shipped %d", row.Config, row.StreamBytes, direct.StreamBytes)
		}
		if row.Syncs != direct.Syncs {
			t.Errorf("%s landed %d syncs, direct landed %d", row.Config, row.Syncs, direct.Syncs)
		}
	}
	// The direct path has no wire accounting; every transport run does,
	// with framing overhead above the stream size.
	if direct.WireBytes != 0 {
		t.Errorf("direct path accrued %d wire bytes", direct.WireBytes)
	}
	if clean.WireBytes <= clean.StreamBytes {
		t.Errorf("clean wire bytes %d not above stream bytes %d", clean.WireBytes, clean.StreamBytes)
	}
	// Loss costs retransmits and lag; more loss costs more of both.
	if lossy.Retransmits == 0 || heavy.Retransmits <= lossy.Retransmits {
		t.Errorf("retransmits: 2%% -> %d, 10%% -> %d", lossy.Retransmits, heavy.Retransmits)
	}
	if heavy.LagP95 <= clean.LagP95 {
		t.Errorf("10%% loss p95 lag %v not above clean %v", heavy.LagP95, clean.LagP95)
	}
	// The partition run resumed exactly once and its worst lag swallows
	// the outage.
	if part.Resumes != 1 {
		t.Errorf("partition run resumed %d times, want 1", part.Resumes)
	}
	if part.LagMax < time.Second {
		t.Errorf("partition run max lag %v does not cover the 1s outage", part.LagMax)
	}
	if !strings.Contains(r.Render(), "Lag p95") {
		t.Error("render missing columns")
	}
}

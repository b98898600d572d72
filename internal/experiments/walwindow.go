package experiments

// Durable-window experiment (not a paper table — it quantifies the WAL-first
// commit path this repo adds on top of the paper's epoch checkpoints). One
// process dirties a small working set and commits after every round of work,
// once per cadence mode: full incremental epochs, WAL-first commits that
// fold only when the log region fills, and WAL-first commits folded every
// 16th frame. For each mode we report the per-commit durable window
// (checkpoint start to the commit landing on media), the achieved
// commit-to-commit interval, and the store's free-block level before and
// after the run — the proof that log-structured GC reclaims dead frames and
// the store does not leak under a sustained append/fold cycle. The headline
// claim: WAL-first commit sustains a checkpoint interval below one virtual
// millisecond, which full epochs cannot.

import (
	"fmt"
	"time"

	"aurora"
	"aurora/internal/sls"
	"aurora/internal/vm"
)

// WALWindowRow is one commit-cadence mode's run.
type WALWindowRow struct {
	Mode        string
	Commits     int
	WALFrames   int64 // commits that landed as WAL frame appends
	Folds       int64 // commits that landed as full epochs
	WindowP50   time.Duration
	WindowP99   time.Duration
	IntervalP50 time.Duration // commit start to next commit start
	FlushBytes  int64
	// UsedStart/UsedEnd are net blocks in use (allocated minus freed) after
	// the base image and after the final fold: a leak-free append/fold/GC
	// cycle ends where it started, modulo the deltas the run accreted.
	UsedStart int64
	UsedEnd   int64
	// WALHeadEnd is the log region's write offset after the final fold —
	// zero when GC reclaimed every dead frame.
	WALHeadEnd int64
}

// WALWindowResult is the full cadence sweep.
type WALWindowResult struct {
	Rows []WALWindowRow
}

// WALWindow runs the sweep. Quick scale shrinks the round count so the
// suite fits in CI time.
func WALWindow(scale Scale) (*WALWindowResult, error) {
	rounds := 256
	if scale == Quick {
		rounds = 64
	}
	modes := []struct {
		name      string
		kind      sls.CheckpointKind
		foldEvery int
	}{
		{"full epoch", sls.CkptIncremental, 0},
		{"wal, fold on full log", sls.CkptWAL, 0},
		{"wal, fold every 16", sls.CkptWAL, 16},
	}
	res := &WALWindowResult{}
	for _, mode := range modes {
		m, err := aurora.NewMachine(aurora.Config{StorageBytes: 1 << 30})
		if err != nil {
			return nil, err
		}
		row, err := walWindowRun(m, mode.name, mode.kind, mode.foldEvery, rounds)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mode.name, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// walWindowRun drives one cadence mode on a fresh machine: dirty a few pages,
// commit, repeat, with a barrier per round so every window is measured to
// real durability.
func walWindowRun(m *aurora.Machine, name string, kind sls.CheckpointKind, foldEvery, rounds int) (WALWindowRow, error) {
	p := m.Spawn("app")
	g, err := m.Attach("app", p)
	if err != nil {
		return WALWindowRow{}, err
	}
	g.Options.FoldEvery = foldEvery
	const pages = 64
	va, err := p.Mmap(pages*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		return WALWindowRow{}, err
	}
	buf := make([]byte, vm.PageSize)
	dirty := func(round int) error {
		buf[0] = byte(round + 1)
		// Four pages change per round — a small delta, the WAL's sweet spot.
		for pg := int64(0); pg < 4; pg++ {
			at := (pg*16 + int64(round)%16) % pages
			if err := p.WriteMem(va+uint64(at*vm.PageSize), buf); err != nil {
				return err
			}
		}
		return nil
	}
	if err := dirty(0); err != nil {
		return WALWindowRow{}, err
	}
	if _, err := g.Checkpoint(sls.CkptIncremental); err != nil {
		return WALWindowRow{}, err
	}
	if err := g.Barrier(); err != nil {
		return WALWindowRow{}, err
	}
	inUse := func() int64 {
		st := m.Store.Stats()
		return st.BlocksAllocated - st.BlocksFreed
	}
	row := WALWindowRow{Mode: name, Commits: rounds, UsedStart: inUse()}

	var windows, intervals []time.Duration
	prevStart := time.Duration(-1)
	for i := 1; i <= rounds; i++ {
		if err := dirty(i); err != nil {
			return WALWindowRow{}, err
		}
		start := m.Clock.Now()
		st, err := g.Checkpoint(kind)
		if err != nil {
			return WALWindowRow{}, err
		}
		if err := g.Barrier(); err != nil {
			return WALWindowRow{}, err
		}
		if st.WALSeq != 0 {
			row.WALFrames++
		} else {
			row.Folds++
		}
		if win := st.DurableAt - start; win > 0 {
			windows = append(windows, win)
		} else {
			windows = append(windows, 0)
		}
		if prevStart >= 0 {
			intervals = append(intervals, start-prevStart)
		}
		prevStart = start
		row.FlushBytes += st.FlushBytes
	}
	// Fold the tail so the log region is released, then read the footprint.
	if _, err := g.Checkpoint(sls.CkptIncremental); err != nil {
		return WALWindowRow{}, err
	}
	if err := g.Barrier(); err != nil {
		return WALWindowRow{}, err
	}
	row.UsedEnd = inUse()
	row.WALHeadEnd = m.Store.WALHead()
	row.WindowP50 = percentile(windows, 500)
	row.WindowP99 = percentile(windows, 990)
	row.IntervalP50 = percentile(intervals, 500)
	return row, nil
}

// Render prints the sweep as an aligned table.
func (r *WALWindowResult) Render() string {
	header := []string{"Commit cadence", "Commits", "Frames", "Folds", "Window p50", "Window p99", "Interval p50", "Flushed", "Used start", "Used end", "WAL head"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Mode,
			fmt.Sprintf("%d", row.Commits),
			fmt.Sprintf("%d", row.WALFrames),
			fmt.Sprintf("%d", row.Folds),
			fmtDur(row.WindowP50),
			fmtDur(row.WindowP99),
			fmtDur(row.IntervalP50),
			fmtBytes(row.FlushBytes),
			fmt.Sprintf("%d", row.UsedStart),
			fmt.Sprintf("%d", row.UsedEnd),
			fmtBytes(row.WALHeadEnd),
		})
	}
	return "Durable window by commit cadence (checkpoint start -> commit on media)\n" + table(header, rows)
}

package experiments

// Replication-lag experiment (not a paper table — the paper reports §3's
// continuous replication qualitatively). One primary keeps dirtying a
// working set while a Replica ships every checkpoint to a standby over the
// simulated wire. For each loss configuration we report the checkpoint-cut
// to standby-applied lag distribution plus wire-level overhead, and one
// configuration runs through a hard partition to exercise resume: the
// interrupted sync's lag includes the outage, which is exactly how the
// number should be read (see EXPERIMENTS.md).

import (
	"fmt"
	"time"

	"aurora"
	"aurora/internal/net"
	"aurora/internal/vm"
)

// ReplRow is one loss configuration's replication run.
type ReplRow struct {
	Config      string
	Syncs       int
	StreamBytes int64
	WireBytes   int64
	Retransmits int64
	Backoffs    int64
	Resumes     int64
	LagP50      time.Duration
	LagP95      time.Duration
	LagMax      time.Duration
}

// ReplicationResult is the full sweep.
type ReplicationResult struct {
	Rows []ReplRow
}

// replConfig is one sweep point: a forward/reverse fault plan. A partition
// fault in the forward plan is healed by the workload waiting out its
// outage on the clock and completed by Resume.
type replConfigCase struct {
	name     string
	fwd, rev net.Plan
}

// Replication runs the sweep. Quick scale shrinks the working set and sync
// count so the whole run fits in CI time.
func Replication(scale Scale) (*ReplicationResult, error) {
	pages, syncs := int64(256), 32
	if scale == Quick {
		pages, syncs = 64, 10
	}
	cases := []replConfigCase{
		{name: "direct"},
		{name: "clean wire"},
		{name: "drop 2%", fwd: net.Plan{Seed: 11, DropProb: 0.02}, rev: net.Plan{Seed: 12, DropProb: 0.02}},
		{name: "drop 10%", fwd: net.Plan{Seed: 21, DropProb: 0.10}, rev: net.Plan{Seed: 22, DropProb: 0.10}},
		{name: "drop+dup+corrupt 5%", fwd: net.Plan{Seed: 31, DropProb: 0.05, DupProb: 0.05, CorruptProb: 0.05}, rev: net.Plan{Seed: 32, DropProb: 0.05}},
		{name: "1s partition + resume", fwd: net.Plan{Faults: []net.Fault{{Xmit: 40, Kind: net.FaultPartition, For: time.Second}}}},
	}
	res := &ReplicationResult{}
	for _, c := range cases {
		row, err := replicationRun(c, pages, syncs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// replicationRun drives one primary/standby pair through the sync loop.
func replicationRun(c replConfigCase, pages int64, syncs int) (ReplRow, error) {
	src, err := aurora.NewMachine(aurora.Config{StorageBytes: 1 << 30})
	if err != nil {
		return ReplRow{}, err
	}
	if c.name != "direct" {
		// 8 KiB frames keep the per-sync transmission count high enough
		// that low loss rates are visible even at Quick scale.
		src.Net = &aurora.NetConfig{Fwd: c.fwd, Rev: c.rev, Conn: net.Config{FrameData: 8 << 10}}
	}
	dst, err := aurora.NewMachine(aurora.Config{StorageBytes: 1 << 30})
	if err != nil {
		return ReplRow{}, err
	}
	p := src.Spawn("primary")
	if _, err := src.Attach("primary", p); err != nil {
		return ReplRow{}, err
	}
	va, err := p.Mmap(pages*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		return ReplRow{}, err
	}
	buf := make([]byte, vm.PageSize)
	dirty := func(round int) error {
		buf[0] = byte(round + 1)
		// A quarter of the working set changes between syncs.
		for pg := int64(0); pg < pages; pg += 4 {
			if err := p.WriteMem(va+uint64(pg*vm.PageSize), buf); err != nil {
				return err
			}
		}
		src.Clock.Advance(2 * time.Millisecond) // app work between syncs
		return nil
	}
	if err := dirty(0); err != nil {
		return ReplRow{}, err
	}
	rep, err := src.ReplicateTo(dst, "primary")
	if err != nil {
		return ReplRow{}, err
	}
	lags := []time.Duration{rep.LastLag}
	for i := 1; i <= syncs; i++ {
		if err := dirty(i); err != nil {
			return ReplRow{}, err
		}
		if err := rep.Sync(); err != nil {
			if !rep.Pending() {
				return ReplRow{}, err
			}
			// Partition outlasted the retry budget: wait out the outage on
			// the virtual clock, then complete the ship from the standby's
			// high-water mark.
			for _, f := range c.fwd.Faults {
				src.Clock.Advance(f.For)
			}
			if err := rep.Resume(); err != nil {
				return ReplRow{}, err
			}
		}
		lags = append(lags, rep.LastLag)
	}
	return ReplRow{
		Config:      c.name,
		Syncs:       rep.Syncs,
		StreamBytes: rep.BytesTotal,
		WireBytes:   rep.WireBytes,
		Retransmits: rep.Retransmits,
		Backoffs:    rep.Backoffs,
		Resumes:     rep.Resumes,
		LagP50:      percentile(lags, 500),
		LagP95:      percentile(lags, 950),
		LagMax:      percentile(lags, 1000),
	}, nil
}

// Render prints the sweep as an aligned table.
func (r *ReplicationResult) Render() string {
	header := []string{"Wire", "Syncs", "Stream", "Wire bytes", "Retx", "Backoff", "Resume", "Lag p50", "Lag p95", "Lag max"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Config,
			fmt.Sprintf("%d", row.Syncs),
			fmtBytes(row.StreamBytes),
			fmtBytes(row.WireBytes),
			fmt.Sprintf("%d", row.Retransmits),
			fmt.Sprintf("%d", row.Backoffs),
			fmt.Sprintf("%d", row.Resumes),
			fmtDur(row.LagP50),
			fmtDur(row.LagP95),
			fmtDur(row.LagMax),
		})
	}
	return "Replication lag under lossy wires (checkpoint cut -> standby applied)\n" + table(header, rows)
}

package experiments

import (
	"bytes"
	"fmt"
	"time"

	"aurora"
	"aurora/internal/apps/memcached"
	"aurora/internal/sls"
	"aurora/internal/workload"
)

// RestoreGroupCounts is the tenant sweep: one memcached group, then
// several restored back to back.
var RestoreGroupCounts = []int{1, 4, 8}

// RestorePoint is one row of the serial-vs-speculative comparison. "First
// request" is the virtual span from the reboot to a single-item read
// completing: under RestoreFull that is the whole eager page load plus the
// (resident) read; under RestoreSpeculative it is the metadata rebuild —
// when the group could first execute — plus the same read of the page the
// prefetch installed. Either way the read is of one slot, not a request
// through the server: the application's own post-restore index scan is
// skipped (EXPERIMENTS.md lists this as a deviation).
type RestorePoint struct {
	Groups         int
	SerialFirstReq time.Duration
	SpecFirstReq   time.Duration
	SpecSettle     time.Duration // the whole speculative restore, prefetch included
	PagesValidated int64
	Rollbacks      int // always 0: a restore that meets rot fails
}

// RestoreResult is the sweep.
type RestoreResult struct {
	Points []RestorePoint
}

// Render prints the comparison table.
func (r RestoreResult) Render() string {
	var rows [][]string
	for _, p := range r.Points {
		speedup := float64(p.SerialFirstReq) / float64(p.SpecFirstReq)
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Groups),
			fmtDur(p.SerialFirstReq),
			fmtDur(p.SpecFirstReq),
			fmtDur(p.SpecSettle),
			fmt.Sprintf("%.0fx", speedup),
			fmt.Sprintf("%d", p.PagesValidated),
			fmt.Sprintf("%d", p.Rollbacks),
		})
	}
	return "Restore: time to first request, serial vs speculative (memcached)\n" +
		table([]string{"Groups", "Serial", "Speculative", "Spec settle", "Speedup", "Validated", "Rollbacks"}, rows)
}

// RestoreBench builds N memcached groups, checkpoints them, power-cuts the
// machine, and restores the image both ways from identical crash states
// (object-store recovery is read-only, so each restore gets its own reboot
// of the same device). The paper's restore claim is about availability:
// the speculative path must put the first request on the wire well before
// the serial path has finished loading pages.
func RestoreBench(scale Scale) (RestoreResult, error) {
	var out RestoreResult
	for _, n := range RestoreGroupCounts {
		pt, err := restorePoint(scale, n)
		if err != nil {
			return out, fmt.Errorf("restore %d groups: %w", n, err)
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

func restorePoint(scale Scale, groups int) (RestorePoint, error) {
	pt := RestorePoint{Groups: groups}
	itemsPer := 20000
	if scale == Quick {
		itemsPer = 2000
	}

	m, err := aurora.NewMachine(aurora.Config{StorageBytes: 16 << 30})
	if err != nil {
		return pt, err
	}
	names := make([]string, groups)
	arenas := make([]uint64, groups)
	for i := 0; i < groups; i++ {
		names[i] = fmt.Sprintf("mc%d", i)
		s, err := memcached.New(m.K, itemsPer)
		if err != nil {
			return pt, err
		}
		arenas[i], _ = s.Arena()
		g, err := m.Attach(names[i], s.Proc)
		if err != nil {
			return pt, err
		}
		for _, op := range workload.Fill(itemsPer, names[i], 300) {
			if err := s.Apply(op); err != nil {
				return pt, err
			}
		}
		if _, err := g.Checkpoint(sls.CkptFull); err != nil {
			return pt, err
		}
		if err := g.Barrier(); err != nil {
			return pt, err
		}
	}

	// firstItem reads one slot out of every group — the stand-in for the
	// first client request each tenant serves after the reboot.
	firstItem := func(gs []*sls.Group) ([][]byte, error) {
		reads := make([][]byte, len(gs))
		for i, g := range gs {
			buf := make([]byte, memcached.SlotSize)
			if err := g.Procs()[0].ReadMem(arenas[i], buf); err != nil {
				return nil, err
			}
			reads[i] = buf
		}
		return reads, nil
	}

	// Serial: eager pages, then the read.
	mSer, err := m.Crash()
	if err != nil {
		return pt, err
	}
	t0 := mSer.Clock.Now()
	gsSer, _, err := mSer.SLS.RestoreGroups(names, mSer.Store, sls.RestoreFull, true)
	if err != nil {
		return pt, err
	}
	serReads, err := firstItem(gsSer)
	if err != nil {
		return pt, err
	}
	pt.SerialFirstReq = mSer.Clock.Now() - t0

	// Speculative: each group's metadata, then its pages, one group after
	// another; TimeToFirstOp is the span the mode exists to shrink.
	mSpec, err := m.Crash()
	if err != nil {
		return pt, err
	}
	t0 = mSpec.Clock.Now()
	gsSpec, sts, err := mSpec.SLS.RestoreGroups(names, mSpec.Store, sls.RestoreSpeculative, true)
	if err != nil {
		return pt, err
	}
	pt.SpecSettle = mSpec.Clock.Now() - t0
	var ttfo time.Duration
	for _, st := range sts {
		// The metadata rebuilds summed: when the last group could run had
		// every group's objects been rebuilt before any page loaded.
		ttfo += st.TimeToFirstOp
		pt.PagesValidated += st.PagesValidated
		pt.Rollbacks += st.Rollbacks
	}
	before := mSpec.Clock.Now()
	specReads, err := firstItem(gsSpec)
	if err != nil {
		return pt, err
	}
	pt.SpecFirstReq = ttfo + (mSpec.Clock.Now() - before)

	for i := range serReads {
		if !bytes.Equal(serReads[i], specReads[i]) {
			return pt, fmt.Errorf("group %s: serial and speculative restores disagree on the first item", names[i])
		}
	}
	return pt, nil
}

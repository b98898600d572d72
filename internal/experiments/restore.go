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

// RestorePoint is one row of the eager-vs-lazy comparison, the two ways the
// paper's Table 6 restores. "First request" is the virtual span from the
// reboot to a single-item read completing in every group: under RestoreFull
// that is the whole eager page load plus the (resident) read; under
// RestoreLazy it is the object rebuild plus the read, which faults its page
// in from the store. The read is of one slot, not a request through the
// server: the application's own post-restore index scan is skipped
// (EXPERIMENTS.md lists this as a deviation).
type RestorePoint struct {
	Groups        int
	EagerFirstReq time.Duration
	LazyFirstReq  time.Duration
}

// RestoreResult is the sweep.
type RestoreResult struct {
	Points []RestorePoint
}

// Render prints the comparison table.
func (r RestoreResult) Render() string {
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Groups),
			fmtDur(p.EagerFirstReq),
			fmtDur(p.LazyFirstReq),
			fmt.Sprintf("%.1fx", float64(p.EagerFirstReq)/float64(p.LazyFirstReq)),
		})
	}
	return "Restore: time to first request, eager vs lazy (memcached)\n" +
		table([]string{"Groups", "Eager", "Lazy", "Speedup"}, rows)
}

// RestoreBench builds N memcached groups, checkpoints them, power-cuts the
// machine, and restores the image both ways from identical crash states
// (object-store recovery is read-only, so each restore gets its own reboot
// of the same device). The paper's restore claim is about availability:
// the lazy restore puts the first request on the wire well before the eager
// one has finished loading pages.
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

	// firstRequest reboots the image, restores every group in mode and
	// reads the first item of each: the span from the reboot to the last
	// read, and what was read.
	firstRequest := func(mode sls.RestoreMode) (time.Duration, [][]byte, error) {
		m2, err := m.Crash()
		if err != nil {
			return 0, nil, err
		}
		t0 := m2.Clock.Now()
		gs, _, err := m2.SLS.RestoreGroups(names, m2.Store, mode, true)
		if err != nil {
			return 0, nil, err
		}
		reads, err := firstItem(gs)
		return m2.Clock.Now() - t0, reads, err
	}
	var eagerReads, lazyReads [][]byte
	if pt.EagerFirstReq, eagerReads, err = firstRequest(sls.RestoreFull); err != nil {
		return pt, err
	}
	if pt.LazyFirstReq, lazyReads, err = firstRequest(sls.RestoreLazy); err != nil {
		return pt, err
	}
	for i := range eagerReads {
		if !bytes.Equal(eagerReads[i], lazyReads[i]) {
			return pt, fmt.Errorf("group %s: eager and lazy restores disagree on the first item", names[i])
		}
	}
	return pt, nil
}

package placement

// TestDetectionTimelinePinned pins a scripted fleet's virtual timeline
// against literals: every event's instant in ns, the Status rendering
// after each phase, the tick on which the death edge fires, and the final
// clock. TestCoordinatorDeterminism only compares two runs of one build;
// this test holds the heartbeat's clock charge and the miss threshold to
// fixed numbers across refactors. Every instant was re-pinned earlier when the
// collapse of a sync's previous shadows left the stop window, and again when a
// standby began copying each page it receives into its resident image (one
// MemCopyPerPage each on the fleet's one clock); the events, their order, the
// death tick and every Status rendering did not move either time.

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestDetectionTimelinePinned(t *testing.T) {
	f := newFleet(t, 4, Config{
		SyncEvery:      2 * time.Millisecond,
		HeartbeatEvery: time.Millisecond,
		HotFactor:      1.5,
	})
	f.start(t, "g0", 0)
	f.start(t, "g1", 0)
	f.start(t, "g2", 1)

	var log []string
	record := func(phase string, evs []Event) {
		for _, e := range evs {
			log = append(log, fmt.Sprintf("%s %d %s", phase, int64(e.At), e))
		}
	}

	// Phase 1: steady state, every group syncing to its standby.
	record("sync", f.run(t, 8, time.Millisecond))
	st1 := f.c.Status()

	// Phase 2: aur1 loses power. The coordinator is told nothing; it ticks
	// until the heartbeat misses cross the threshold, then fails g2 over
	// and reseeds every group whose standby lived there.
	if err := f.c.KillMachine("aur1"); err != nil {
		t.Fatal(err)
	}
	deadTick := -1
	var stMiss string
	for i := 1; i <= 6; i++ {
		evs := f.run(t, 1, time.Millisecond)
		if deadTick < 0 && count(evs, EvDead) > 0 {
			deadTick = i
		}
		record(fmt.Sprintf("kill+%d", i), evs)
		if i == 2 {
			stMiss = f.c.Status()
		}
	}
	st2 := f.c.Status()

	// Phase 3: g0 runs hot on aur0 and a forced scan sheds it.
	if err := f.step("g0", 200); err != nil {
		t.Fatal(err)
	}
	evs := f.c.Rebalance()
	f.rebind(t, evs)
	record("rebalance", evs)
	st3 := f.c.Status()
	end := int64(f.clk.Now())

	got := fmt.Sprintf("events:\n%s\n--- after sync\n%s--- two ticks after the kill\n%s--- after detection\n%s--- after rebalance\n%sdead on tick %d after the kill\nclock %d ns\n",
		strings.Join(log, "\n"), st1, stMiss, st2, st3, deadTick, end)
	if got != detectionTimeline {
		t.Fatalf("scripted fleet timeline moved:\n%s\nwant:\n%s", got, detectionTimeline)
	}
}

const detectionTimeline = `events:
kill+3 22903669 [  22.903ms] dead       node=aur1
kill+3 22950800 [  22.950ms] reseed     group=g0 aur0->aur2
kill+3 22952600 [  22.952ms] failover   group=g2 aur1->aur3
kill+3 23210125 [  23.210ms] reseed     group=g2 aur3->aur0
rebalance 33557433 [  33.557ms] rebalance  group=g0 aur0->aur3
rebalance 33557433 [  33.557ms] reseed     group=g0 err=placement: no standby candidate for "g0"
--- after sync
fleet: 4 machines (4 alive), 3 groups (0 orphaned)
  failovers=0 rebalances=0 sync_errors=0
  node  aur0     alive primaries=2 hosted=2 misses=0
  node  aur1     alive primaries=1 hosted=2 misses=0
  node  aur2     alive primaries=0 hosted=1 misses=0
  node  aur3     alive primaries=0 hosted=1 misses=0
  group g0       primary=aur0     standby=aur1     syncs=8 failovers=0 migrations=0
  group g1       primary=aur0     standby=aur2     syncs=8 failovers=0 migrations=0
  group g2       primary=aur1     standby=aur3     syncs=8 failovers=0 migrations=0
--- two ticks after the kill
fleet: 4 machines (4 alive), 3 groups (0 orphaned)
  failovers=0 rebalances=0 sync_errors=0
  node  aur0     alive primaries=2 hosted=2 misses=0
  node  aur1     alive primaries=1 hosted=2 misses=2
  node  aur2     alive primaries=0 hosted=1 misses=0
  node  aur3     alive primaries=0 hosted=1 misses=0
  group g0       primary=aur0     standby=aur1     syncs=10 failovers=0 migrations=0
  group g1       primary=aur0     standby=aur2     syncs=10 failovers=0 migrations=0
  group g2       primary=aur1     standby=aur3     syncs=10 failovers=0 migrations=0
--- after detection
fleet: 4 machines (3 alive), 3 groups (0 orphaned)
  failovers=1 rebalances=0 sync_errors=0
  node  aur0     alive primaries=2 hosted=3 misses=0
  node  aur1     dead  primaries=0 hosted=0 misses=3
  node  aur2     alive primaries=0 hosted=2 misses=0
  node  aur3     alive primaries=1 hosted=1 misses=0
  group g0       primary=aur0     standby=aur2     syncs=14 failovers=0 migrations=0
  group g1       primary=aur0     standby=aur2     syncs=14 failovers=0 migrations=0
  group g2       primary=aur3     standby=aur0     syncs=14 failovers=1 migrations=0
--- after rebalance
fleet: 4 machines (3 alive), 3 groups (0 orphaned)
  failovers=1 rebalances=1 sync_errors=0
  node  aur0     alive primaries=1 hosted=2 misses=0
  node  aur1     dead  primaries=0 hosted=0 misses=3
  node  aur2     alive primaries=0 hosted=1 misses=0
  node  aur3     alive primaries=2 hosted=2 misses=0
  group g0       primary=aur3     standby=-        syncs=14 failovers=0 migrations=1
  group g1       primary=aur0     standby=aur2     syncs=14 failovers=0 migrations=0
  group g2       primary=aur3     standby=aur0     syncs=14 failovers=1 migrations=0
dead on tick 3 after the kill
clock 33557433 ns
`

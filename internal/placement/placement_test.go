package placement

// Coordinator tests drive a small fleet on one shared virtual clock:
// heartbeat death discovery, watchdog fail-stop, failover + reseed,
// standby loss, rebalancing, migration refusals, and the determinism
// contract (two identically-built fleets emit identical event logs).

import (
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"aurora"
	"aurora/internal/clock"
	"aurora/internal/trace"
	"aurora/internal/vm"
)

const appRegion = 1 << 20

// fleet is the test harness: N machines on one clock under one coordinator.
type fleet struct {
	clk   *clock.Virtual
	c     *Coordinator
	ms    []*aurora.Machine
	names []string
	procs map[string]*aurora.Proc
}

func newFleet(t *testing.T, n int, cfg Config) *fleet {
	t.Helper()
	f := &fleet{clk: clock.NewVirtual(), procs: make(map[string]*aurora.Proc)}
	f.c = New(f.clk, cfg)
	for i := 0; i < n; i++ {
		name := "aur" + string(rune('0'+i))
		m, err := aurora.NewMachine(aurora.Config{StorageBytes: 64 << 20, Clock: f.clk})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.c.AddMachine(name, m); err != nil {
			t.Fatal(err)
		}
		f.ms = append(f.ms, m)
		f.names = append(f.names, name)
	}
	return f
}

// start attaches a one-proc app for group on machine idx and manages it.
func (f *fleet) start(t *testing.T, group string, idx int) *Assignment {
	t.Helper()
	m := f.ms[idx]
	p := m.Spawn(group)
	if _, err := p.Mmap(appRegion, aurora.ProtRead|aurora.ProtWrite, false); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Attach(group, p); err != nil {
		t.Fatal(err)
	}
	f.procs[group] = p
	a, err := f.c.Manage(group, f.names[idx], func() error { return f.step(group, 4) })
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// step runs n counter increments on the group's current process.
func (f *fleet) step(group string, n int64) error {
	p := f.procs[group]
	var buf [8]byte
	for i := int64(0); i < n; i++ {
		if err := p.ReadMem(vm.UserBase, buf[:]); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(buf[:], binary.LittleEndian.Uint64(buf[:])+1)
		if err := p.WriteMem(vm.UserBase, buf[:]); err != nil {
			return err
		}
		f.clk.Advance(10 * time.Microsecond)
	}
	f.c.RecordOps(group, n)
	return nil
}

func (f *fleet) counter(t *testing.T, group string) uint64 {
	t.Helper()
	var buf [8]byte
	if err := f.procs[group].ReadMem(vm.UserBase, buf[:]); err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// rebind repoints a group's process handle after a failover/migration event.
func (f *fleet) rebind(t *testing.T, evs []Event) {
	t.Helper()
	for _, e := range evs {
		if (e.Kind == EvFailover || e.Kind == EvRebalance) && e.G != nil {
			procs := e.G.Procs()
			if len(procs) != 1 {
				t.Fatalf("%s: new group has %d procs, want 1", e, len(procs))
			}
			f.procs[e.Group] = procs[0]
		}
	}
}

// run advances the clock in ticks, stepping every live group and ticking
// the coordinator, collecting events.
func (f *fleet) run(t *testing.T, ticks int, by time.Duration) []Event {
	t.Helper()
	var all []Event
	for i := 0; i < ticks; i++ {
		for _, name := range f.c.gorder {
			a := f.c.groups[name]
			// A powered-off primary produces no work, even before the
			// coordinator learns of the death.
			if a.Orphaned || f.c.nodes[a.Primary].down {
				continue
			}
			if err := f.step(name, 4); err != nil {
				t.Fatalf("step %s: %v", name, err)
			}
		}
		f.clk.Advance(by)
		evs := f.c.Tick()
		f.rebind(t, evs)
		all = append(all, evs...)
	}
	return all
}

func count(evs []Event, k EventKind) int {
	n := 0
	for _, e := range evs {
		if e.Kind == k {
			n++
		}
	}
	return n
}

func TestHeartbeatDeathFailsOverToStandby(t *testing.T) {
	f := newFleet(t, 3, Config{SyncEvery: 2 * time.Millisecond, HeartbeatEvery: time.Millisecond})
	a := f.start(t, "app", 0)
	if a.Primary != "aur0" || a.Standby == "" {
		t.Fatalf("bad initial placement: %+v", a)
	}
	standby := a.Standby

	f.run(t, 10, time.Millisecond) // let several syncs land
	if a.Syncs == 0 {
		t.Fatal("no syncs before the kill")
	}
	before := f.counter(t, "app")
	if before == 0 {
		t.Fatal("app never ran")
	}

	if err := f.c.KillMachine("aur0"); err != nil {
		t.Fatal(err)
	}
	// Tick without stepping until the detector fires: a powered-off
	// machine produces no work while the coordinator counts misses.
	var evs []Event
	for i := 0; i < 10 && count(evs, EvFailover) == 0; i++ {
		f.clk.Advance(time.Millisecond)
		tick := f.c.Tick()
		f.rebind(t, tick)
		evs = append(evs, tick...)
	}
	if count(evs, EvDead) != 1 || count(evs, EvFailover) != 1 {
		t.Fatalf("want one death and one failover, got: %v", evs)
	}
	if a.Primary != standby {
		t.Fatalf("promoted to %q, want old standby %q", a.Primary, standby)
	}
	if a.Standby == "" || a.Standby == a.Primary {
		t.Fatalf("no fresh standby after failover: %+v", a)
	}
	if count(evs, EvReseed) != 1 {
		t.Fatalf("want one reseed, got: %v", evs)
	}

	// The promoted replica carries the last synced state — at most what
	// the primary had done, never garbage or zero.
	after := f.counter(t, "app")
	if after == 0 || after > before {
		t.Fatalf("restored counter %d out of range (0, %d]", after, before)
	}
	if err := f.step("app", 4); err != nil {
		t.Fatalf("promoted group rejects work: %v", err)
	}

	// The new standby keeps receiving syncs.
	s := a.Syncs
	f.run(t, 10, time.Millisecond)
	if a.Syncs <= s {
		t.Fatal("no syncs to the reseeded standby")
	}
	if !f.c.Protected() {
		t.Fatal("fleet not protected after failover + reseed")
	}
	if rep := f.c.nodes[a.Primary].M.Audit(); !rep.OK() {
		t.Fatalf("promoted machine audits dirty:\n%s", rep)
	}
}

func TestDeclareDeadFailStopPath(t *testing.T) {
	f := newFleet(t, 3, Config{SyncEvery: 2 * time.Millisecond, HeartbeatEvery: time.Millisecond})
	tr := trace.NewMetricsOnly(f.clk)
	f.c.Instrument(tr)
	a := f.start(t, "app", 0)
	f.run(t, 6, time.Millisecond)

	// Watchdog path: no missed heartbeats, death is declared outright.
	evs := f.c.DeclareDead("aur0")
	f.rebind(t, evs)
	if count(evs, EvDead) != 1 || count(evs, EvFailover) != 1 {
		t.Fatalf("declare produced: %v", evs)
	}
	if a.Primary == "aur0" {
		t.Fatal("group still placed on the declared-dead machine")
	}
	if evs2 := f.c.DeclareDead("aur0"); evs2 != nil {
		t.Fatalf("double declare produced events: %v", evs2)
	}
	if tr.CounterValue("fleet.deaths") != 1 || f.c.Failovers() != 1 {
		t.Fatalf("counters: deaths=%d failovers=%d", tr.CounterValue("fleet.deaths"), f.c.Failovers())
	}
}

func TestStandbyDeathReseeds(t *testing.T) {
	f := newFleet(t, 3, Config{SyncEvery: 2 * time.Millisecond, HeartbeatEvery: time.Millisecond})
	a := f.start(t, "app", 0)
	f.run(t, 6, time.Millisecond)
	oldStandby := a.Standby

	if err := f.c.KillMachine(oldStandby); err != nil {
		t.Fatal(err)
	}
	evs := f.run(t, 10, time.Millisecond)
	if count(evs, EvDead) != 1 || count(evs, EvFailover) != 0 {
		t.Fatalf("standby death must not fail over: %v", evs)
	}
	if count(evs, EvReseed) != 1 {
		t.Fatalf("want one reseed, got: %v", evs)
	}
	if a.Primary != "aur0" {
		t.Fatalf("primary moved to %q on a standby death", a.Primary)
	}
	if a.Standby == oldStandby || a.Standby == "" {
		t.Fatalf("standby %q not replaced", a.Standby)
	}
	s := a.Syncs
	f.run(t, 6, time.Millisecond)
	if a.Syncs <= s {
		t.Fatal("reseeded standby receives no syncs")
	}
}

func TestOrphanWhenNoStandbyLeft(t *testing.T) {
	// Two machines: the group's standby dies first (no reseed candidate
	// exists), then the primary — the group is orphaned, not resurrected.
	f := newFleet(t, 2, Config{SyncEvery: 2 * time.Millisecond, HeartbeatEvery: time.Millisecond})
	a := f.start(t, "app", 0)
	f.run(t, 6, time.Millisecond)

	if err := f.c.KillMachine(a.Standby); err != nil {
		t.Fatal(err)
	}
	evs := f.run(t, 10, time.Millisecond)
	reseedErr := false
	for _, e := range evs {
		if e.Kind == EvReseed && e.Err != nil {
			reseedErr = true
		}
	}
	if !reseedErr {
		t.Fatalf("expected a no-candidate reseed report, got: %v", evs)
	}
	if f.c.Protected() {
		t.Fatal("fleet claims protected with no standby")
	}

	if err := f.c.KillMachine("aur0"); err != nil {
		t.Fatal(err)
	}
	evs = f.run(t, 10, time.Millisecond)
	if count(evs, EvOrphan) != 1 || count(evs, EvFailover) != 0 {
		t.Fatalf("want one orphan and no failover, got: %v", evs)
	}
	if !a.Orphaned || f.c.Orphans() != 1 {
		t.Fatalf("assignment not orphaned: %+v", a)
	}
	if _, err := f.c.MigrateGroup("app", "aur1"); err == nil {
		t.Fatal("migrating an orphaned group succeeded")
	}
}

func TestRebalanceShedsHotGroup(t *testing.T) {
	f := newFleet(t, 4, Config{
		SyncEvery:      5 * time.Millisecond,
		HeartbeatEvery: 2 * time.Millisecond,
		RebalanceEvery: 20 * time.Millisecond,
		HotFactor:      1.5,
	})
	// Three groups, all on aur0 — hot by construction.
	for _, g := range []string{"g0", "g1", "g2"} {
		f.start(t, g, 0)
	}
	// g0 does 10x the work of the others.
	var all []Event
	for i := 0; i < 30; i++ {
		if err := f.step("g0", 40); err != nil {
			t.Fatal(err)
		}
		for _, g := range []string{"g1", "g2"} {
			if err := f.step(g, 4); err != nil {
				t.Fatal(err)
			}
		}
		f.clk.Advance(time.Millisecond)
		evs := f.c.Tick()
		f.rebind(t, evs)
		all = append(all, evs...)
	}
	moved := 0
	for _, e := range all {
		if e.Kind == EvRebalance {
			if e.Err != nil {
				t.Fatalf("rebalance failed: %v", e)
			}
			if e.From != "aur0" {
				t.Fatalf("rebalance moved from %q, want aur0", e.From)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("hot node never shed a group")
	}
	if f.c.Rebalances() != int64(moved) {
		t.Fatalf("counter %d, moves %d", f.c.Rebalances(), moved)
	}
	// The moved group still works and is re-protected.
	a, _ := f.c.Assignment("g0")
	if a.Primary == "aur0" && moved > 0 {
		// g0 was the hottest; if another group moved instead that is a
		// selection bug.
		t.Fatalf("hottest group g0 still on aur0; assignments:\n%s", f.c.Status())
	}
	if err := f.step("g0", 4); err != nil {
		t.Fatalf("migrated group rejects work: %v", err)
	}
	if a.Standby == "" {
		t.Fatal("migrated group left unprotected")
	}
}

func TestMigrateGroupRefusals(t *testing.T) {
	f := newFleet(t, 3, Config{SyncEvery: 2 * time.Millisecond, HeartbeatEvery: time.Millisecond})
	a := f.start(t, "app", 0)
	f.run(t, 6, time.Millisecond)

	if _, err := f.c.MigrateGroup("ghost", "aur1"); err == nil {
		t.Fatal("migrating an unmanaged group succeeded")
	}
	if _, err := f.c.MigrateGroup("app", "nope"); err == nil {
		t.Fatal("migrating to an unknown machine succeeded")
	}
	if _, err := f.c.MigrateGroup("app", "aur0"); err == nil {
		t.Fatal("migrating onto the current primary succeeded")
	}
	// The standby already holds the image: a full migrate stream into it
	// would be refused by the manifest merge, so the coordinator refuses
	// first.
	if _, err := f.c.MigrateGroup("app", a.Standby); err == nil {
		t.Fatal("migrating onto the standby succeeded")
	}

	// Kill the one remaining fresh machine, then try to migrate to it.
	var fresh string
	for _, name := range f.names {
		if name != a.Primary && name != a.Standby {
			fresh = name
		}
	}
	evs := f.c.DeclareDead(fresh)
	f.rebind(t, evs)
	if _, err := f.c.MigrateGroup("app", fresh); err == nil {
		t.Fatal("migrating to a dead machine succeeded")
	}
	// Explicit migration works when the target is fresh and alive.
	f2 := newFleet(t, 4, Config{SyncEvery: 2 * time.Millisecond, HeartbeatEvery: time.Millisecond})
	a2 := f2.start(t, "app", 0)
	var target string
	for _, name := range f2.names {
		if name != a2.Primary && name != a2.Standby {
			target = name
			break
		}
	}
	mevs, err := f2.c.MigrateGroup("app", target)
	if err != nil {
		t.Fatalf("explicit migrate: %v", err)
	}
	f2.rebind(t, mevs)
	if a2.Primary != target {
		t.Fatalf("primary %q after migrate, want %q", a2.Primary, target)
	}
	if err := f2.step("app", 4); err != nil {
		t.Fatalf("migrated group rejects work: %v", err)
	}
}

// driveScripted runs a fixed fleet scenario and returns the full event
// log and final status rendering.
func driveScripted(t *testing.T) (string, string) {
	t.Helper()
	f := newFleet(t, 4, Config{
		SyncEvery:      2 * time.Millisecond,
		HeartbeatEvery: time.Millisecond,
		RebalanceEvery: 15 * time.Millisecond,
		HotFactor:      1.5,
	})
	f.start(t, "g0", 0)
	f.start(t, "g1", 0)
	f.start(t, "g2", 1)
	var log strings.Builder
	for i := 0; i < 40; i++ {
		if err := f.step("g0", 30); err != nil {
			t.Fatal(err)
		}
		for _, g := range []string{"g1", "g2"} {
			a, _ := f.c.Assignment(g)
			if a.Orphaned {
				continue
			}
			if err := f.step(g, 4); err != nil {
				t.Fatal(err)
			}
		}
		if i == 20 {
			if err := f.c.KillMachine("aur1"); err != nil {
				t.Fatal(err)
			}
		}
		f.clk.Advance(time.Millisecond)
		evs := f.c.Tick()
		f.rebind(t, evs)
		for _, e := range evs {
			log.WriteString(e.String())
			log.WriteByte('\n')
		}
	}
	return log.String(), f.c.Status()
}

func TestCoordinatorDeterminism(t *testing.T) {
	log1, st1 := driveScripted(t)
	log2, st2 := driveScripted(t)
	if log1 != log2 {
		t.Fatalf("identical fleets, different event logs:\n--- run 1\n%s\n--- run 2\n%s", log1, log2)
	}
	if st1 != st2 {
		t.Fatalf("identical fleets, different status:\n--- run 1\n%s\n--- run 2\n%s", st1, st2)
	}
	if !strings.Contains(log1, "dead") || !strings.Contains(log1, "failover") {
		t.Fatalf("scripted run missed death/failover:\n%s", log1)
	}
	if !strings.Contains(st1, "fleet: 4 machines (3 alive)") {
		t.Fatalf("status header wrong:\n%s", st1)
	}
}

func TestAddMachineAndManageValidation(t *testing.T) {
	f := newFleet(t, 2, Config{})
	if _, err := f.c.AddMachine("aur0", f.ms[0]); err == nil {
		t.Fatal("duplicate machine name accepted")
	}
	if _, err := f.c.Manage("ghost", "aur0", nil); err == nil {
		t.Fatal("managing a nonexistent group succeeded")
	}
	if _, err := f.c.Manage("app", "nope", nil); err == nil {
		t.Fatal("managing on an unknown machine succeeded")
	}
	f.start(t, "app", 0)
	if _, err := f.c.Manage("app", "aur0", nil); err == nil {
		t.Fatal("double manage succeeded")
	}
	if n, ok := f.c.Node("aur0"); !ok || !!n.dead {
		t.Fatal("node lookup broken")
	}
	if _, ok := f.c.Node("nope"); ok {
		t.Fatal("ghost node found")
	}
}

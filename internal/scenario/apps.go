package scenario

// Application bindings: each workload declaration binds one of the repo's
// existing applications to a machine and knows how to (a) step it under
// generated load and (b) rebind itself after the group's processes were
// rebuilt by a restore, failover, or migration. Rebinding goes through the
// same arena-rescan entry points the experiments use (RebuildIndex,
// RebuildMemtable) — all application state must live in checkpointed
// memory, which is exactly the paper's claim.

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"time"

	"aurora"
	"aurora/internal/apps/memcached"
	"aurora/internal/apps/rocksdb"
	"aurora/internal/filebench"
	"aurora/internal/kern"
	"aurora/internal/vm"
	"aurora/internal/workload"
)

// appBinding is one bound application instance.
type appBinding interface {
	// step applies n generated operations (or one burst, for duration-
	// driven workloads like filebench).
	step(n int64) error
	// rebind reattaches the binding to the group's current processes after
	// a restore/failover/migrate rebuilt them.
	rebind(gs *groupState) error
}

// newGenerator builds the declared generator (ETC when unset). Each workload
// gets its own seed, derived from the scenario seed by declaration position,
// so adding a workload never perturbs another's op stream.
func newGenerator(w WorkloadDecl, seed int64) workload.Generator {
	return pick(generatorKinds, w.Generator).do(seed, int(cmp.Or(w.Items, 1024)), w)
}

// ---- counter: the sls demo app, one u64 in process memory ----

// counterRegion mirrors the sls CLI's demo layout: state at the process's
// first mapping.
const counterRegion = 1 << 20

// counterWork is the simulated per-increment application CPU time.
const counterWork = 10 * time.Microsecond

type counterApp struct {
	m *machineState
	p *aurora.Proc
}

func newCounterApp(ms *machineState, w WorkloadDecl, _ int64, _ time.Duration) (appBinding, *aurora.Group, error) {
	p := ms.m.Spawn(w.Group)
	if _, err := p.Mmap(counterRegion, aurora.ProtRead|aurora.ProtWrite, false); err != nil {
		return nil, nil, err
	}
	g, err := ms.m.Attach(w.Group, p)
	if err != nil {
		return nil, nil, err
	}
	return &counterApp{m: ms, p: p}, g, nil
}

func (c *counterApp) step(n int64) error {
	var buf [8]byte
	for i := int64(0); i < n; i++ {
		if err := c.p.ReadMem(vm.UserBase, buf[:]); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(buf[:], binary.LittleEndian.Uint64(buf[:])+1)
		if err := c.p.WriteMem(vm.UserBase, buf[:]); err != nil {
			return err
		}
		c.m.m.Clock.Advance(counterWork)
	}
	return nil
}

func (c *counterApp) rebind(gs *groupState) error {
	p, err := firstProc(gs)
	c.m = gs.host
	c.p = p
	return err
}

// ---- memcached and rocksdb: a key-value server under a generator ----

// kvApp drives a key-value server with generated ops. Everything the server
// knows lives in one arena of checkpointed memory, so rebinding after a
// restore is a rescan of that arena in the group's new root process.
type kvApp struct {
	gen   workload.Generator
	arena uint64
	cap   int64
	apply func(workload.Op) error
	// rescan rebuilds the server over the arena as p maps it and returns
	// its apply.
	rescan func(p *kern.Proc) (func(workload.Op) error, error)
}

func newMemcachedApp(ms *machineState, w WorkloadDecl, seed int64, _ time.Duration) (appBinding, *aurora.Group, error) {
	srv, err := memcached.New(ms.m.K, int(cmp.Or(w.Items, 1024)))
	if err != nil {
		return nil, nil, err
	}
	g, err := ms.m.Attach(w.Group, srv.Proc)
	if err != nil {
		return nil, nil, err
	}
	a := &kvApp{gen: newGenerator(w, seed), apply: srv.Apply}
	a.arena, a.cap = srv.Arena()
	a.rescan = func(p *kern.Proc) (func(workload.Op) error, error) {
		srv, err := memcached.RebuildIndex(p, a.arena, a.cap)
		if err != nil {
			return nil, err
		}
		return srv.Apply, nil
	}
	return a, g, nil
}

// newRocksDBApp opens the transparently checkpointed build (ConfigAurora).
func newRocksDBApp(ms *machineState, w WorkloadDecl, seed int64, _ time.Duration) (appBinding, *aurora.Group, error) {
	g, ok := ms.m.SLS.GroupByName(w.Group)
	if !ok {
		g = ms.m.SLS.CreateGroup(w.Group)
	}
	// The memtable is sized so it never rotates within a scenario: rotation
	// compacts via map iteration, which would cost bit-determinism.
	db, err := rocksdb.Open(ms.m.K, rocksdb.Options{
		Config:      rocksdb.ConfigAurora,
		MemtableCap: 64 << 20,
		Group:       g,
	})
	if err != nil {
		return nil, nil, err
	}
	a := &kvApp{gen: newGenerator(w, seed), apply: db.Apply}
	a.arena, a.cap = db.MemtableArena()
	a.rescan = func(p *kern.Proc) (func(workload.Op) error, error) {
		db, err := rocksdb.RebuildMemtable(p, a.arena, a.cap)
		if err != nil {
			return nil, err
		}
		return db.Apply, nil
	}
	return a, g, nil
}

func (a *kvApp) step(n int64) error {
	for i := int64(0); i < n; i++ {
		if err := a.apply(a.gen.Next()); err != nil {
			return err
		}
	}
	return nil
}

func (a *kvApp) rebind(gs *groupState) error {
	p, err := firstProc(gs)
	if err != nil {
		return err
	}
	apply, err := a.rescan(p)
	if err != nil {
		return err
	}
	a.apply = apply
	return nil
}

// ---- filebench: duration-driven personalities over the machine's FS ----

type filebenchApp struct {
	m    *machineState
	w    WorkloadDecl
	seed int64
	tick time.Duration
}

func newFilebenchApp(ms *machineState, w WorkloadDecl, seed int64, tick time.Duration) (appBinding, *aurora.Group, error) {
	return &filebenchApp{m: ms, w: w, seed: seed, tick: tick}, nil, nil
}

// step runs one tick-length burst of the personality against the machine's
// live (possibly post-recovery) file system. n is the op budget for
// generator workloads; filebench is duration-driven, so it is ignored.
func (a *filebenchApp) step(n int64) error {
	cfg := filebench.Config{
		Clock:    a.m.m.Clock,
		Duration: a.tick,
		IOSize:   4096,
		FileSize: 4 << 20,
		NFiles:   int(cmp.Or(a.w.Items, 8)),
		Seed:     a.seed,
	}
	_, err := pick(personalityKinds, a.w.Personality).do(a.m.m.FS, cfg)
	return err
}

// rebind is trivial: the binding tracks the machine, and the machine's FS
// pointer is refreshed by the event handlers after every reboot.
func (a *filebenchApp) rebind(gs *groupState) error {
	a.m = gs.host
	return nil
}

// firstProc returns the restored group's root process.
func firstProc(gs *groupState) (*kern.Proc, error) {
	if gs.g == nil || len(gs.g.Procs()) == 0 {
		return nil, fmt.Errorf("%s %q: restored group has no processes", gs.decl.App, gs.decl.Group)
	}
	return gs.g.Procs()[0], nil
}

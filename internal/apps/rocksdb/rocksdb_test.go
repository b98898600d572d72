package rocksdb

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"aurora/internal/clock"
	"aurora/internal/device"
	"aurora/internal/fsbase"
	"aurora/internal/kern"
	"aurora/internal/mem"
	"aurora/internal/objstore"
	"aurora/internal/sls"
	"aurora/internal/slsfs"
	"aurora/internal/vfs"
	"aurora/internal/vm"
)

type env struct {
	clk   *clock.Virtual
	costs *clock.Costs
	dev   *device.Stripe
	store *objstore.Store
	k     *kern.Kernel
	o     *sls.Orchestrator
	ffs   vfs.FileSystem
}

func newEnv(t *testing.T) *env {
	t.Helper()
	clk := clock.NewVirtual()
	costs := clock.DefaultCosts()
	dev := device.NewStripe(clk, costs, 4, 64<<10, 2<<30)
	store, err := objstore.Format(dev, clk, costs)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := slsfs.Format(store, clk, costs)
	if err != nil {
		t.Fatal(err)
	}
	k := kern.New(clk, costs, vm.NewSystem(mem.New(0), clk, costs), fs)
	ffs := fsbase.New(clk, device.NewStripe(clk, costs, 4, 64<<10, 2<<30), fsbase.FFS())
	return &env{clk: clk, costs: costs, dev: dev, store: store, k: k, o: sls.New(k, store), ffs: ffs}
}

func openCfg(t *testing.T, e *env, cfg Config) *DB {
	return openCfgCap(t, e, cfg, 1<<20)
}

func openCfgCap(t *testing.T, e *env, cfg Config, walCap int64) *DB {
	t.Helper()
	opts := Options{Config: cfg, MemtableCap: 32 << 20, WALCapacity: walCap}
	switch cfg {
	case ConfigWAL, ConfigNoSync:
		opts.FS = e.ffs
	default:
		g := e.o.CreateGroup(fmt.Sprintf("rocksdb-%d", cfg))
		g.Period = 0 // manual checkpoints in tests
		opts.Group = g
	}
	db, err := Open(e.k, opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPutGetAllConfigs(t *testing.T) {
	for _, cfg := range []Config{ConfigNoSync, ConfigAurora, ConfigWAL, ConfigAuroraWAL} {
		t.Run(cfg.String(), func(t *testing.T) {
			e := newEnv(t)
			db := openCfg(t, e, cfg)
			for i := 0; i < 100; i++ {
				if err := db.Put(fmt.Sprintf("key-%04d", i), []byte(fmt.Sprintf("val-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			v, ok, err := db.Get("key-0042")
			if err != nil || !ok || string(v) != "val-42" {
				t.Fatalf("get: %q ok=%v err=%v", v, ok, err)
			}
			if _, ok, _ := db.Get("nope"); ok {
				t.Fatal("phantom key")
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMemtableFlushAndLSMRead(t *testing.T) {
	e := newEnv(t)
	db := openCfg(t, e, ConfigNoSync)
	db.WALCapacity = 1 << 30 // don't trigger on WAL
	// Tiny memtable to force flushes.
	small, err := Open(e.k, Options{Config: ConfigNoSync, FS: e.ffs, MemtableCap: 64 << 10, WALCapacity: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	_ = db
	val := bytes.Repeat([]byte{9}, 512)
	for i := 0; i < 500; i++ {
		if err := small.Put(fmt.Sprintf("key-%06d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	if len(small.lsm) == 0 {
		t.Fatal("no sorted runs despite tiny memtable")
	}
	// Old keys now live in sorted runs, not the memtable.
	v, ok, err := small.Get("key-000001")
	if err != nil || !ok || !bytes.Equal(v, val) {
		t.Fatalf("LSM read: ok=%v err=%v", ok, err)
	}
}

func TestCompactionPreservesData(t *testing.T) {
	e := newEnv(t)
	db, err := Open(e.k, Options{Config: ConfigNoSync, FS: e.ffs, MemtableCap: 32 << 10, WALCapacity: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{5}, 256)
	for i := 0; i < 2000; i++ {
		if err := db.Put(fmt.Sprintf("key-%06d", i%300), val); err != nil {
			t.Fatal(err)
		}
	}
	if db.compactions == 0 {
		t.Fatal("no compactions triggered")
	}
	for i := 0; i < 300; i++ {
		v, ok, err := db.Get(fmt.Sprintf("key-%06d", i))
		if err != nil || !ok || !bytes.Equal(v, val) {
			t.Fatalf("key %d after compaction: ok=%v err=%v", i, ok, err)
		}
	}
}

func TestWALFullTriggersCheckpointInAuroraBuild(t *testing.T) {
	e := newEnv(t)
	db := openCfg(t, e, ConfigAuroraWAL)
	db.WALCapacity = 32 << 10
	val := bytes.Repeat([]byte{1}, 400)
	before := db.group.Checkpoints()
	for i := 0; i < 300; i++ {
		if err := db.Put(fmt.Sprintf("key-%05d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	// The group has no period, so every checkpoint is a trigger.
	if db.group.Checkpoints() <= before {
		t.Fatal("WAL never filled / no Aurora checkpoint taken")
	}
	if ents, err := db.journal.Entries(); err != nil || len(ents) == 0 {
		t.Fatalf("no journal appends since the last trigger: %d entries, err=%v", len(ents), err)
	}
}

func TestAuroraBuildSurvivesCrash(t *testing.T) {
	// The headline claim: the custom build has the same write persistence
	// as the WAL build. Committed (group-committed) writes survive.
	e := newEnv(t)
	db := openCfg(t, e, ConfigAuroraWAL)
	db.walBatch = 1 // every put synced, simplest persistence contract
	for i := 0; i < 50; i++ {
		if err := db.Put(fmt.Sprintf("key-%04d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Take the covering checkpoint, then a few more unsynced-memtable
	// writes reach only the journal.
	if _, err := db.group.Checkpoint(sls.CkptIncremental); err != nil {
		t.Fatal(err)
	}
	if err := db.group.Barrier(); err != nil {
		t.Fatal(err)
	}
	arena, capacity := db.MemtableArena()

	// Crash: recover the store on a fresh kernel.
	store2, err := objstore.Recover(e.dev, e.clk, e.costs, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := slsfs.Recover(store2, e.clk, e.costs)
	if err != nil {
		t.Fatal(err)
	}
	k2 := kern.New(e.clk, e.costs, vm.NewSystem(mem.New(0), e.clk, e.costs), fs2)
	o2 := sls.New(k2, store2)
	g2, _, err := o2.RestoreGroup("rocksdb-3", store2, sls.RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := RebuildMemtable(g2.Procs()[0], arena, capacity)
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err := db2.Get("key-0042")
	if err != nil || !ok || string(v) != "v42" {
		t.Fatalf("after crash: %q ok=%v err=%v", v, ok, err)
	}
	// The journal replays for the post-checkpoint window.
	j, err := g2.OpenJournal("rocksdb-wal")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Entries(); err != nil {
		t.Fatal(err)
	}
}

func TestAuroraMemtableRotationCompacts(t *testing.T) {
	// Under Aurora the memtable IS the database: when it fills, a
	// checkpoint persists it and dead versions compact in place.
	e := newEnv(t)
	g := e.o.CreateGroup("rocksdb-rot")
	g.Period = 0
	db, err := Open(e.k, Options{Config: ConfigAurora, Group: g, MemtableCap: 96 << 10, WALCapacity: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{4}, 700)
	// Overwrite a small keyspace until the arena must rotate.
	for i := 0; i < 400; i++ {
		if err := db.Put(fmt.Sprintf("key-%02d", i%40), val); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// The group has no period, so every checkpoint is a rotation.
	if g.Checkpoints() == 0 {
		t.Fatal("memtable never rotated")
	}
	for i := 0; i < 40; i++ {
		v, ok, err := db.Get(fmt.Sprintf("key-%02d", i))
		if err != nil || !ok || !bytes.Equal(v, val) {
			t.Fatalf("key %d after rotation: ok=%v err=%v", i, ok, err)
		}
	}
	if db.Len() != 40 {
		t.Fatalf("live keys = %d, want 40", db.Len())
	}
}

func TestThroughputOrdering(t *testing.T) {
	// Figure 6(a)'s shape: NoSync > Aurora+WAL > RocksDB+WAL, and
	// transparent Aurora-100Hz well below NoSync.
	const keys = 20000
	run := func(cfg Config) float64 {
		e := newEnv(t)
		db := openCfgCap(t, e, cfg, 16<<20)
		if cfg == ConfigAurora {
			db.group.Period = 10 * time.Millisecond
		}
		val := bytes.Repeat([]byte{7}, 400)
		// Preload.
		for i := 0; i < keys; i++ {
			if err := db.Put(fmt.Sprintf("key-%06d", i), val); err != nil {
				t.Fatal(err)
			}
		}
		if db.group != nil {
			if _, err := db.group.Checkpoint(sls.CkptIncremental); err != nil {
				t.Fatal(err)
			}
		}
		start := e.clk.Now()
		const ops = 60000
		for i := 0; i < ops; i++ {
			var err error
			if i%4 == 0 {
				err = db.Put(fmt.Sprintf("key-%06d", (i*13)%keys), val)
			} else {
				_, _, err = db.Get(fmt.Sprintf("key-%06d", (i*7)%keys))
			}
			if err != nil {
				t.Fatal(err)
			}
			// Transparent persistence: 10 ms periodic checkpoints.
			if cfg == ConfigAurora {
				if _, _, err := db.group.MaybePeriodic(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return ops / (e.clk.Now() - start).Seconds()
	}
	nosync := run(ConfigNoSync)
	aurora := run(ConfigAurora)
	wal := run(ConfigWAL)
	awal := run(ConfigAuroraWAL)
	t.Logf("nosync=%.0f aurora-100hz=%.0f wal=%.0f aurora+wal=%.0f", nosync, aurora, wal, awal)
	if !(nosync > awal) {
		t.Errorf("NoSync %.0f <= Aurora+WAL %.0f", nosync, awal)
	}
	if !(awal > wal) {
		t.Errorf("Aurora+WAL %.0f <= RocksDB+WAL %.0f (the +75%% claim)", awal, wal)
	}
	// At this test's small scale the node region saturates, bounding the
	// fault tax; the full -83% shape is exercised at realistic scale by
	// the Figure 6 experiment harness. Here only the direction is checked.
	if !(aurora < 0.85*nosync) {
		t.Errorf("Aurora-100Hz %.0f not below NoSync %.0f", aurora, nosync)
	}
}

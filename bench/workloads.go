package main

import (
	"fmt"
	"time"

	"aurora"
)

// workloadDef is one set of inputs the benchmark runs.
type workloadDef struct {
	name string
	why  string
	run  func(x *run) (*world, error)
	// inexact marks a workload whose virtual-clock values are not a pure
	// function of the seed, so that no report calls them exact.
	inexact bool
}

var workloads = []workloadDef{
	{"memcached-ckpt", "transparent persistence at 100 Hz: the one load where vm shadowing, kern serialisation (1150+ objects), the sls flush pipeline, objstore and device are all busy at once", runMemcachedCkpt, false},
	{"rocksdb-journal", "custom-API persistence: many small synchronous journal appends and rare checkpoints, so vm and kern do almost nothing; bypasses bulk-flush optimisations", runRocksJournal,
		// Its checkpoints flush two large memory objects (arena, skiplist
		// nodes) at once, and with two or more flush workers the order their
		// writes reach the device, hence block layout, DurableAt and restore
		// read coalescing, follows goroutine scheduling: same-seed runs differ
		// by up to 2 % in virt_restore_us_p50, 0.01 % in virt_ops_per_s. With
		// FlushWorkers = 1 they agree bit for bit. A product finding (README).
		true},
	{"wal-commit", "sub-ms WAL-first commits of 4-page deltas: objstore wal, device ordering and fold/GC bursts with negligible vm/kern work; bypasses big-delta flush paths", runWALCommit, false},
	{"crash-restore", "chained crash/restore cycles in all three modes: the only load dominated by recovery, the read path, restore validation and the pager", runCrashRestore, false},
	{"replica-failover", "replication over a 2 % lossy wire, then failover: the only load where internal/net (go-back-N) and sls send/recv dominate", runReplicaFailover, false},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// sizes are the fixed work counts of a run. Work is fixed-count, not
// fixed-duration, so every count and every virtual-clock value is a pure
// function of (seed, scale, seconds). Only the main loops scale with
// seconds; the full-scale counts are sized so that a run's measured part
// takes about that long on the 2-core machine the benchmark was sized on,
// and a p99 the main loop produces has at least 1000 samples behind it at
// the default 10.
type sizes struct {
	scale      string
	seconds    int
	probeScale int // divides probe iteration counts

	mc struct { // memcached-ckpt and crash-restore share the image
		setups       int // set-ups per run; setup_s is their midmean
		items, conns int
		warmOps      int64 // ops before each warm-up checkpoint
		ckpts        int   // memcached-ckpt: periodic checkpoints measured
		cycles       int   // crash-restore: chained cycles
		cycleOps     int64 // crash-restore: ops served per cycle
		coda
	}
	rocks struct {
		setups, keys  int
		ops           int64
		memtable, wal int64
		coda
	}
	wal struct {
		setups  int
		pages   int64
		commits int
		coda
	}
	rf struct {
		setups           int // per episode
		pages            int64
		episodes, rounds int
		coda
	}
}

// coda sizes the parts of a workload that follow its main loop: every
// workload reports every end-to-end metric for its own image, so whichever
// of explicit commits, replication and crash/restore its main loop lacks
// runs afterwards at these counts. Each phase of the coda is sampled apart
// (run.begin), and a metric is read from one only when the main loop has no
// samples of its kind.
type coda struct {
	commits int   // rounds of (ops, checkpoint, barrier)
	cycles  int   // crash/restore cycles, a multiple of 3 (one per mode)
	syncs   int   // replication rounds before the failover
	ops     int64 // app ops per coda round
}

func sizesFor(scale string, seconds int) (sizes, error) {
	sz := sizes{scale: scale, seconds: seconds}
	switch scale {
	case "smoke":
		sz.probeScale = 50
		sz.mc.items, sz.mc.conns, sz.mc.warmOps, sz.mc.ckpts, sz.mc.cycles, sz.mc.cycleOps = 4000, 32, 500, 40, 6, 1000
		sz.mc.setups, sz.rocks.setups, sz.wal.setups, sz.rf.setups = 1, 1, 1, 1
		sz.mc.coda = coda{commits: 6, cycles: 3, syncs: 4, ops: 300}
		sz.rocks.keys, sz.rocks.ops, sz.rocks.memtable, sz.rocks.wal = 2*rocksPrefixes, 20000, 32<<20, 1<<20
		sz.rocks.coda = coda{commits: 6, cycles: 3, syncs: 4, ops: 300}
		sz.wal.pages, sz.wal.commits = 256, 400
		sz.wal.coda = coda{cycles: 3, syncs: 4, ops: walTouched}
		sz.rf.pages, sz.rf.episodes, sz.rf.rounds = 128, 2, 8
		sz.rf.coda = coda{commits: 6, cycles: 3, ops: 128 / rfStride}
	case "full":
		if seconds < 1 {
			return sz, fmt.Errorf("-seconds must be at least 1")
		}
		sz.probeScale = 1
		sz.mc.items, sz.mc.conns, sz.mc.warmOps = 60000, memcachedConns, 4800
		sz.mc.ckpts, sz.mc.cycles, sz.mc.cycleOps = 100*seconds, 3*seconds, 40000
		sz.mc.setups, sz.rocks.setups, sz.wal.setups, sz.rf.setups = 5, 5, 61, 3
		sz.mc.coda = coda{cycles: 36, syncs: 40, ops: 2000}
		sz.rocks.keys, sz.rocks.ops, sz.rocks.memtable, sz.rocks.wal = 40*rocksPrefixes, 80000*int64(seconds), 512<<20, 8<<20
		sz.rocks.coda = coda{commits: 200, cycles: 12, syncs: 40, ops: 2000}
		sz.wal.pages, sz.wal.commits = 4096, 5000*seconds
		sz.wal.coda = coda{cycles: 60, syncs: 400, ops: walTouched}
		sz.rf.pages, sz.rf.episodes, sz.rf.rounds = 1024, seconds, 100
		sz.rf.coda = coda{commits: 1000, cycles: 60, ops: 1024 / rfStride}
	default:
		return sz, fmt.Errorf("unknown -scale %q (full or smoke)", scale)
	}
	return sz, nil
}

const (
	ckptPeriod   = 10 * time.Millisecond
	retainEpochs = 4
)

// buildMemcached is the paper's §9.5 image: memcached with its whole key
// space resident and the full closed-loop connection population established.
func buildMemcached(x *run) (*world, error) {
	m, err := aurora.NewMachine(aurora.Defaults())
	if err != nil {
		return nil, err
	}
	a, err := newMemcached(m, x.seed, x.sz.mc.items, x.sz.mc.conns)
	if err != nil {
		return nil, err
	}
	g, err := m.Attach("memcached", a.s.Proc)
	if err != nil {
		return nil, err
	}
	g.Period = ckptPeriod
	g.RetainEpochs = retainEpochs
	w := &world{m: m, g: g, a: a, name: "memcached"}
	return w, warm(w, x.sz.mc.warmOps)
}

// The coda's phases run, on the image the main loop leaves behind, explicit
// commit rounds, a replication episode and a crash/restore chain, each
// sampled as a part of its own. The coda's wire is clean: loss handling is
// replica-failover's subject, and a median over a few dozen syncs on a lossy
// wire says more about the seed's drops than about the image being shipped.
func (x *run) codaCommit(w *world, c coda) error {
	x.begin("coda.commit")
	return x.commitRounds(w, c.commits, c.ops)
}

func (x *run) codaReplicate(w *world, c coda) error {
	x.begin("coda.replicate")
	return x.replicate(w, x.seed<<8, 0, c.syncs, nil, func() error { return x.serve(w, c.ops, nil) })
}

func (x *run) codaRestore(w *world, c coda) error {
	x.begin("coda.restore")
	return x.restoreChain(w, c.cycles, c.ops, nil)
}

func runMemcachedCkpt(x *run) (*world, error) {
	w, err := x.setUp(x.sz.mc.setups, func() (*world, error) { return buildMemcached(x) })
	if err != nil {
		return nil, err
	}
	x.beginMeasured()
	clk := w.m.Clock
	seg := x.segments(int64(x.sz.mc.ckpts))
	last := clk.Now()
	took := false
	maybe := func() error {
		if clk.Now()-last < ckptPeriod {
			return nil
		}
		err := x.commit(w, aurora.CkptIncremental, true, false)
		last, took = clk.Now(), true
		return err
	}
	err = x.stored(w, func() error {
		seg.begin()
		return x.measure(clk, func() error {
			for ckpts := 0; ckpts < x.sz.mc.ckpts; {
				took = false
				if err := x.serve(w, opBatch, maybe); err != nil {
					return err
				}
				if took {
					ckpts++
					seg.tick()
				}
			}
			return nil
		})
	})
	if err != nil {
		return w, err
	}
	x.endMain()
	if err := x.codaReplicate(w, x.sz.mc.coda); err != nil {
		return w, err
	}
	return w, x.codaRestore(w, x.sz.mc.coda)
}

func runRocksJournal(x *run) (*world, error) {
	w, err := x.setUp(x.sz.rocks.setups, func() (*world, error) {
		m, err := aurora.NewMachine(aurora.Defaults())
		if err != nil {
			return nil, err
		}
		// RocksDB opens its journal on the group before its process exists.
		g := m.SLS.CreateGroup("rocksdb")
		g.RetainEpochs = retainEpochs
		a, err := newRocks(m, g, x.seed, x.sz.rocks.keys, x.sz.rocks.memtable, x.sz.rocks.wal)
		if err != nil {
			return nil, err
		}
		w := &world{m: m, g: g, a: a, name: "rocksdb"}
		return w, warm(w, x.sz.rocks.coda.ops)
	})
	if err != nil {
		return nil, err
	}
	x.beginMeasured()
	x.putsOnly = true // the paper's Figure 6 latency is write latency
	x.ampOverPuts = true
	seg := x.segments(x.sz.rocks.ops / opBatch)
	err = x.stored(w, func() error {
		seg.begin()
		return x.measure(w.m.Clock, func() error {
			return x.serve(w, x.sz.rocks.ops, func() error { seg.tick(); return nil })
		})
	})
	if err != nil {
		return w, err
	}
	x.endMain()
	c := x.sz.rocks.coda
	if err := x.codaCommit(w, c); err != nil {
		return w, err
	}
	if err := x.codaReplicate(w, c); err != nil {
		return w, err
	}
	return w, x.codaRestore(w, c)
}

const (
	walTouched  = 4                     // pages dirtied per commit round
	walThink    = 50 * time.Microsecond // application work between commits
	walFoldEach = 16
)

func buildPages(x *run, name string, pages int64, storage int64) (*world, *pagesApp, error) {
	cfg := aurora.Defaults()
	if storage != 0 {
		cfg.StorageBytes = storage
	}
	m, err := aurora.NewMachine(cfg)
	if err != nil {
		return nil, nil, err
	}
	a, err := newPages(m, name, x.seed, pages)
	if err != nil {
		return nil, nil, err
	}
	g, err := m.Attach(name, a.p)
	if err != nil {
		return nil, nil, err
	}
	g.RetainEpochs = retainEpochs
	if err := a.sweep(1); err != nil {
		return nil, nil, err
	}
	return &world{m: m, g: g, a: a, name: name}, a, nil
}

func runWALCommit(x *run) (*world, error) {
	w, err := x.setUp(x.sz.wal.setups, func() (*world, error) {
		w, _, err := buildPages(x, "walapp", x.sz.wal.pages, 0)
		if err != nil {
			return nil, err
		}
		w.g.Options.FoldEvery = walFoldEach
		return w, warm(w, walTouched)
	})
	if err != nil {
		return nil, err
	}
	x.beginMeasured()
	clk := w.m.Clock
	seg := x.segments(int64(x.sz.wal.commits))
	err = x.stored(w, func() error {
		seg.begin()
		v0 := clk.Now()
		for i := 0; i < x.sz.wal.commits; i++ {
			x.cal.tick()
			clk.Advance(walThink)
			t := clk.Now()
			for j := 0; j < walTouched; j++ {
				if _, err := w.a.op(); err != nil {
					x.fail("page write: %v", err)
				}
			}
			if err := x.commit(w, aurora.CkptWAL, false, true); err != nil {
				return err
			}
			x.opVirt.add(int64(clk.Now() - t))
			x.servedOps++
			seg.tick()
			if i%256 == 0 {
				if err := x.expired(); err != nil {
					return err
				}
			}
		}
		x.mainOps += int64(x.sz.wal.commits)
		x.mainVirt += clk.Now() - v0
		return nil
	})
	if err != nil {
		return w, err
	}
	x.endMain()
	if err := x.codaReplicate(w, x.sz.wal.coda); err != nil {
		return w, err
	}
	return w, x.codaRestore(w, x.sz.wal.coda)
}

func runCrashRestore(x *run) (*world, error) {
	w, err := x.setUp(x.sz.mc.setups, func() (*world, error) { return buildMemcached(x) })
	if err != nil {
		return nil, err
	}
	x.beginMeasured()
	seg := x.segments(int64(x.sz.mc.cycles) * (x.sz.mc.cycleOps / opBatch))
	if err := x.restoreChain(w, x.sz.mc.cycles, x.sz.mc.cycleOps, seg); err != nil {
		return w, err
	}
	x.endMain()
	return w, x.codaReplicate(w, x.sz.mc.coda)
}

const (
	rfStride = 4                    // a quarter of the region changes between syncs
	rfThink  = 2 * time.Millisecond // application work between syncs
	rfBytes  = 2 << 30              // each machine's storage
)

func runReplicaFailover(x *run) (*world, error) {
	var w *world
	seg := x.segments(int64(x.sz.rf.episodes * x.sz.rf.rounds))
	for ep := 0; ep < x.sz.rf.episodes; ep++ {
		var a *pagesApp
		var err error
		w, err = x.setUp(x.sz.rf.setups, func() (*world, error) {
			var w *world
			var err error
			w, a, err = buildPages(x, "primary", x.sz.rf.pages, rfBytes)
			if err != nil {
				return nil, err
			}
			return w, warm(w, 0)
		})
		if err != nil {
			return nil, err
		}
		if ep == 0 {
			x.beginMeasured()
		}
		clk := w.m.Clock
		v0 := clk.Now()
		work := func() error {
			prev := clk.Now()
			for pg := a.rng.Int63n(rfStride); pg < a.pages; pg += rfStride {
				x.attempted++
				if err := a.write(pg); err != nil {
					x.fail("page write: %v", err)
				}
				now := clk.Now()
				x.opVirt.add(int64(now - prev))
				prev = now
				x.servedOps++
			}
			clk.Advance(rfThink)
			return nil
		}
		// Each episode's wire gets its own pair of fault plans.
		if err := x.replicate(w, x.seed<<8+int64(2*ep), dropProb, x.sz.rf.rounds, seg, work); err != nil {
			return w, err
		}
		x.mainOps += int64(x.sz.rf.rounds) * (a.pages / rfStride)
		x.mainVirt += clk.Now() - v0
	}
	x.endMain()
	c := x.sz.rf.coda
	if err := x.codaCommit(w, c); err != nil {
		return w, err
	}
	return w, x.codaRestore(w, c)
}

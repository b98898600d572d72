package sls

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aurora/internal/mem"
	"aurora/internal/objstore"
	"aurora/internal/trace"
	"aurora/internal/vm"
)

// The checkpoint flush pipeline (§5's overlap made concrete): once the
// applications resume against fresh shadows, the frozen memory drains to the
// store through four stages —
//
//	Enumerate  (coordinator)  walk shadow pairs, trapped transients, and
//	                          cold objects into one job per destination
//	                          store object
//	Encode     (worker)       resolve each job's newest page versions
//	                          into one sorted batch
//	Write      (worker)       submit the batch through the store's
//	                          three-phase WritePages path
//	Commit     (coordinator)  install pagers, mark trapped transients
//	                          done, and (in Checkpoint) cut the epoch
//
// Jobs fan out to a bounded worker pool, so one object's encode overlaps
// another's device transfer. The epoch commit happens only after the pool
// drains, preserving external synchrony: nothing is released until the
// superblock that covers every flushed page is durable.
//
// Keying jobs by destination OID gives two properties the serial path
// lacked. First, no two workers ever write the same store object within an
// epoch, so the pipeline needs no cross-worker ordering. Second, each page
// index is written exactly once with its NEWEST version: the serial path
// flushed trapped (older, deeper) shadows after the frozen pair, letting a
// stale version overwrite a page dirtied in both a mem-only interval and
// the interval that followed it.

// flushSource is one object contributing pages to a job. A nil target
// stages the object's own unstored pages (the dirty set); a non-nil target
// stages the full image visible from obj down to and including target.
type flushSource struct {
	obj    *vm.Object
	target *vm.Object
}

// flushJob is all flush work destined for one store object this epoch.
// Sources are ordered newest-first; the encoder stages each page index once,
// from the first source that holds it.
type flushJob struct {
	toid    objstore.OID
	install *vm.Object    // persistent root to pager-install once flushed
	covers  bool          // stages the object's own image: flushed once it lands
	sources []flushSource // precedence order: newest version first
	trapped []*vm.Object  // transients to mark done when the job lands
}

// flushPlan is the Enumerate stage's output.
type flushPlan struct {
	jobs  []*flushJob
	index map[objstore.OID]*flushJob
}

func newFlushPlan() *flushPlan {
	return &flushPlan{index: make(map[objstore.OID]*flushJob)}
}

// job returns (creating if needed) the plan's job for toid.
func (pl *flushPlan) job(toid objstore.OID) *flushJob {
	if j, ok := pl.index[toid]; ok {
		return j
	}
	j := &flushJob{toid: toid}
	pl.index[toid] = j
	pl.jobs = append(pl.jobs, j)
	return j
}

// planPairs enumerates the frozen shadow pairs and any trapped transients
// under them. First flush of an object (or CkptFull) stages the full
// visible image; later flushes stage only the frozen dirty set.
func (g *Group) planPairs(pl *flushPlan, pairs []vm.ShadowPair, kind CheckpointKind) {
	o := g.o
	for _, pair := range pairs {
		target := g.persistentRoot(pair.Frozen)
		toid := g.oidFor(target)
		o.Store.Ensure(toid, UTMemObject)
		j := pl.job(toid)
		full := kind == CkptFull || !(g.flushed[toid] || j.covers)
		j.install = target
		src := flushSource{obj: pair.Frozen}
		if full {
			src.target = target
		}
		j.sources = append(j.sources, src)
		j.covers = true
	}
	// Trapped transients (fork mid-interval, unflushed mem-only shadows):
	// collected top-down so a job's source order stays newest-first — the
	// encoder's first-writer-wins dedup replaces the serial path's
	// "flush bottom-up so newer overwrites" ordering.
	seen := make(map[*vm.Object]bool)
	for _, pair := range pairs {
		for obj := pair.Frozen.Backer(); obj != nil; obj = obj.Backer() {
			if !g.transient[obj] || g.trappedDone[obj] || seen[obj] {
				continue
			}
			seen[obj] = true
			target := g.persistentRoot(obj.Backer())
			if target == nil {
				continue
			}
			toid := g.oidFor(target)
			o.Store.Ensure(toid, UTMemObject)
			j := pl.job(toid)
			j.sources = append(j.sources, flushSource{obj: obj})
			j.trapped = append(j.trapped, obj)
		}
	}
}

// planCold enumerates serialized memory objects no shadow pair covered
// (read-only or excluded regions seen for the first time): their resident
// content flushes once, in full. Jobs are planned in ascending-OID order so
// the submit stream is identical across runs of the same workload — the
// crash-replay harness depends on that determinism.
func (g *Group) planCold(pl *flushPlan, ser *serializer) {
	cold := make([]*vm.Object, 0, len(ser.memOIDs))
	for obj, oid := range ser.memOIDs {
		if j := pl.index[oid]; !g.flushed[oid] && (j == nil || !j.covers) {
			cold = append(cold, obj)
		}
	}
	sort.Slice(cold, func(i, j int) bool { return ser.memOIDs[cold[i]] < ser.memOIDs[cold[j]] })
	for _, obj := range cold {
		oid := ser.memOIDs[obj]
		g.o.Store.Ensure(oid, UTMemObject)
		j := pl.job(oid)
		j.sources = append(j.sources, flushSource{obj: obj, target: obj})
		j.covers = true
	}
}

// flushResult aggregates what the pool did.
type flushResult struct {
	bytes    int64
	encode   time.Duration // host time staging, summed over workers
	write    time.Duration // host time submitting, summed over workers
	workers  int
	maxDepth int
}

// drainPool runs job(0..n-1) on a bounded pool — limit workers (0 =
// GOMAXPROCS, 1 = serial), never more than there are jobs — handed out in
// index order. It returns once every job has run or been skipped: after the
// first error, which is the one returned, jobs not yet started are skipped.
// queued, when set, sees the queue depth at each hand-off; maxDepth is its
// high-water mark.
func drainPool(limit, n int, queued func(depth int64), job func(i int) error) (workers, maxDepth int, err error) {
	workers = limit
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	var pool struct { // one struct: the workers share it through one allocation
		depth  atomic.Int64
		failed atomic.Bool
		err    error // written by the worker that sets failed, read after wg.Wait
		wg     sync.WaitGroup
	}
	jobs := make(chan int, n)
	for w := 0; w < workers; w++ {
		pool.wg.Add(1)
		go func() {
			defer pool.wg.Done()
			for i := range jobs {
				pool.depth.Add(-1)
				if pool.failed.Load() {
					continue
				}
				if e := job(i); e != nil && pool.failed.CompareAndSwap(false, true) {
					pool.err = e
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		d := pool.depth.Add(1)
		maxDepth = max(maxDepth, int(d))
		if queued != nil {
			queued(d)
		}
		jobs <- i
	}
	close(jobs)
	pool.wg.Wait()
	return workers, maxDepth, pool.err
}

// runFlush drains the plan through the worker pool (Options.FlushWorkers
// bounds it) and commits the bookkeeping. The call returns only when every
// job has landed or failed; the store epoch is NOT cut here — that is the
// caller's commit step.
func (g *Group) runFlush(pl *flushPlan) (flushResult, error) {
	var res flushResult
	if len(pl.jobs) == 0 {
		return res, nil
	}
	tr := g.o.Tracer // nil disables; Span methods no-op on the zero Span
	var err error
	var sum struct{ bytes, encodeNS, writeNS atomic.Int64 } // over workers
	res.workers, res.maxDepth, err = drainPool(g.Options.FlushWorkers, len(pl.jobs),
		func(d int64) { tr.Observe("sls.flush.queue_depth", d) },
		func(i int) error {
			j := pl.jobs[i]
			// Job spans are zero-width in virtual time — encode and
			// submit burn host CPU only — so the host costs ride as
			// args while the virtual timeline stays authoritative.
			jobSpan := tr.Begin(trace.TrackFlush, "flush.job",
				trace.I("oid", int64(j.toid)))
			t0 := time.Now()
			writes, frames := encodeJob(j)
			encNS := int64(time.Since(t0))
			sum.encodeNS.Add(encNS)
			if len(writes) == 0 {
				jobSpan.End(trace.I("pages", 0))
				return nil
			}
			t0 = time.Now()
			n, err := g.o.Store.WritePages(j.toid, writes)
			wrNS := int64(time.Since(t0))
			sum.writeNS.Add(wrNS)
			sum.bytes.Add(n)
			if err != nil {
				frames = nil // they stay unstored, so a retried checkpoint stages them again
			}
			for _, p := range frames {
				p.Dirty, p.Backed = false, true
			}
			jobSpan.End(trace.I("pages", int64(len(writes))), trace.I("bytes", n),
				trace.I("encode_host_ns", encNS), trace.I("write_host_ns", wrNS))
			return err
		})
	res.bytes = sum.bytes.Load()
	res.encode = time.Duration(sum.encodeNS.Load())
	res.write = time.Duration(sum.writeNS.Load())
	if err != nil {
		return res, err
	}

	// Commit-side bookkeeping: flushed objects become store-backed (their
	// clean pages evict through the unified checkpoint/swap path), and
	// trapped transients are immutable and fully captured from here on. An
	// object counts as flushed only now: had the pool failed, the retry must
	// stage its full image again.
	for _, j := range pl.jobs {
		if j.covers {
			g.flushed[j.toid] = true
		}
		if j.install != nil {
			g.installPager(j.install, j.toid)
		}
		for _, obj := range j.trapped {
			g.trappedDone[obj] = true
		}
	}
	return res, nil
}

// encodeJob resolves the job's newest page versions into a sorted batch.
// The batch references the frozen frames' data directly — frozen and
// trapped shadows are immutable under COW (a racing application fault
// copies OUT of them, never into them), so the single data copy happens in
// the Write stage, inside the device. The resolved frames are returned for the
// worker to mark clean and store-backed once the write has landed; a frame
// whose page index a newer source staged keeps its dirty bit (not among them).
func encodeJob(j *flushJob) ([]objstore.PageWrite, []*mem.Page) {
	staged := make(map[int64]bool)
	var writes []objstore.PageWrite
	var frames []*mem.Page
	add := func(pg int64, p *mem.Page) {
		staged[pg] = true
		writes = append(writes, objstore.PageWrite{Pg: pg, Data: p.Data})
		frames = append(frames, p)
	}
	for _, src := range j.sources {
		if src.target != nil {
			// Full image: everything visible from src.obj down to and
			// including target (but not below — pages under the target,
			// e.g. a mapped file's clean pages, restore from their own
			// object).
			n := mem.PagesFor(src.target.Size())
			for pg := int64(0); pg < n; pg++ {
				if staged[pg] {
					continue
				}
				p, owner := src.obj.Lookup(pg)
				if p == nil || !withinChain(src.obj, src.target, owner) {
					continue
				}
				add(pg, p)
			}
		} else {
			src.obj.EachPage(func(pg int64, p *mem.Page) {
				if staged[pg] || !unstored(p) {
					return
				}
				add(pg, p)
			})
		}
	}
	// Sorted batches give the store sequential block layout per object,
	// which restore's prefetch rewards.
	sort.Slice(writes, func(a, b int) bool { return writes[a].Pg < writes[b].Pg })
	return writes, frames
}

// unstored is the staging rule: a page joins an incremental flush iff the
// store lacks its content — written since it was captured or loaded (Dirty) or
// never from the store (!Backed). Page state decides, not object shape.
func unstored(p *mem.Page) bool { return p.Dirty || !p.Backed }

// withinChain reports whether owner lies on the chain top..target inclusive.
func withinChain(top, target, owner *vm.Object) bool {
	for c := top; c != nil; c = c.Backer() {
		if c == owner {
			return true
		}
		if c == target {
			return false
		}
	}
	return false
}

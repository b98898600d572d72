package sls

import (
	"cmp"
	"slices"
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
//	Enumerate  walk shadow pairs, trapped transients, and cold objects
//	           into one job per destination store object
//	Encode     resolve each job's newest page versions into one sorted batch
//	Write      submit the batch through the store's WritePages, the COW
//	           page write every store page writer runs
//	Commit     install pagers, mark trapped transients done, and (in
//	           Checkpoint) cut the epoch
//
// All four run on the checkpointing goroutine, and the jobs run in plan
// order, so block layout, and with it virtual time, follows the plan alone.
// The overlap the paper models is the device queue's and the durable
// window's, not host threads'. The epoch commit happens only after the last
// job lands, preserving external synchrony: nothing is released until the
// superblock that covers every flushed page is durable.
//
// Keying jobs by destination OID writes each page index exactly once with its
// NEWEST version: were a trapped (older, deeper) shadow flushed after the
// frozen pair, a stale version would overwrite a page dirtied in both a
// mem-only interval and the interval that followed it.

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
	ent     *entry        // the destination
	install *vm.Object    // persistent root to pager-install once flushed
	covers  bool          // stages the object's own image: flushed once it lands
	sources []flushSource // precedence order: newest version first
	trapped []*vm.Object  // transients to mark done when the job lands
}

// flushPlan is the Enumerate stage's output.
type flushPlan struct {
	jobs  []*flushJob
	index map[*entry]*flushJob
}

func newFlushPlan() *flushPlan {
	return &flushPlan{index: make(map[*entry]*flushJob)}
}

// job returns (creating if needed) the plan's job for the object of e.
func (pl *flushPlan) job(e *entry) *flushJob {
	if j, ok := pl.index[e]; ok {
		return j
	}
	j := &flushJob{ent: e}
	pl.index[e] = j
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
		e := g.entryFor(target, 0)
		o.Store.Ensure(e.oid, UTMemObject)
		j := pl.job(e)
		full := kind == CkptFull || !(e.flushed || j.covers)
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
			e := g.entryFor(target, 0)
			o.Store.Ensure(e.oid, UTMemObject)
			j := pl.job(e)
			j.sources = append(j.sources, flushSource{obj: obj})
			j.trapped = append(j.trapped, obj)
		}
	}
}

// planCold enumerates the memory objects this cut walked that no shadow pair
// covered (read-only regions seen for the first time): their resident
// content flushes once, in full. Jobs are planned in ascending-OID order so
// the submit stream is identical across runs of the same workload — the
// crash-replay harness depends on that determinism.
func (g *Group) planCold(pl *flushPlan) {
	for _, e := range g.byOID.All() {
		obj, ok := e.key.(*vm.Object)
		if !ok || e.cut != g.cut || e.flushed {
			continue
		}
		if j := pl.index[e]; j != nil && j.covers {
			continue
		}
		g.o.Store.Ensure(e.oid, UTMemObject)
		j := pl.job(e)
		j.sources = append(j.sources, flushSource{obj: obj, target: obj})
		j.covers = true
	}
}

// flushResult aggregates what the flush did.
type flushResult struct {
	bytes  int64
	encode time.Duration // host time staging
	write  time.Duration // host time submitting
}

// runFlush drains the plan in plan order — encode, write, then mark the
// frames stored, job by job — stopping at the first error, and commits the
// bookkeeping. The store epoch is NOT cut here — that is the caller's commit
// step.
func (g *Group) runFlush(pl *flushPlan) (flushResult, error) {
	var res flushResult
	tr := g.o.Tracer // nil disables; Span methods no-op on the zero Span
	for _, j := range pl.jobs {
		// Job spans are zero-width in virtual time — encode and submit
		// burn host CPU only — so the host costs ride as args while the
		// virtual timeline stays authoritative.
		jobSpan := tr.Begin(trace.TrackFlush, "flush.job", trace.I("oid", int64(j.ent.oid)))
		t0 := time.Now()
		writes, frames := encodeJob(j)
		encNS := time.Since(t0)
		res.encode += encNS
		if len(writes) == 0 {
			jobSpan.End(trace.I("pages", 0))
			continue
		}
		t0 = time.Now()
		n, err := g.o.Store.WritePages(j.ent.oid, writes)
		wrNS := time.Since(t0)
		res.write += wrNS
		res.bytes += n
		jobSpan.End(trace.I("pages", int64(len(writes))), trace.I("bytes", n),
			trace.I("encode_host_ns", int64(encNS)), trace.I("write_host_ns", int64(wrNS)))
		if err != nil {
			return res, err // the frames stay unstored, so a retried checkpoint stages them again
		}
		for _, p := range frames {
			p.Dirty, p.Backed = false, true
		}
	}

	// Commit-side bookkeeping: flushed objects become store-backed (their
	// clean pages evict through the unified checkpoint/swap path), and
	// trapped transients are immutable and fully captured from here on. An
	// object counts as flushed only now: had a job failed, the retry must
	// stage its full image again.
	for _, j := range pl.jobs {
		if j.covers {
			j.ent.flushed = true
		}
		if j.install != nil {
			g.installPager(j.install, j.ent.oid)
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
// the Write stage, inside the device. The resolved frames are returned for
// runFlush to mark clean and store-backed once the write has landed; a frame
// whose page index a newer source staged keeps its dirty bit (not among them).
//
// A source stages in page order and never twice at one index, so a job of
// one source — every frozen pair's — is sorted as staged. Only a job that
// merges sources dedups and sorts.
func encodeJob(j *flushJob) ([]objstore.PageWrite, []*mem.Page) {
	var staged map[int64]bool
	if len(j.sources) > 1 {
		staged = make(map[int64]bool)
	}
	n := 0 // the sources' own pages: a dirty-set job stages at most these
	for _, src := range j.sources {
		n += src.obj.Pages()
	}
	writes := make([]objstore.PageWrite, 0, n)
	frames := make([]*mem.Page, 0, n)
	add := func(pg int64, p *mem.Page) {
		if staged != nil {
			staged[pg] = true
		}
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
	if staged != nil {
		slices.SortFunc(writes, func(a, b objstore.PageWrite) int { return cmp.Compare(a.Pg, b.Pg) })
	}
	return writes, frames
}

// dirty reports a frame written since it was captured or loaded.
func dirty(p *mem.Page) bool { return p.Dirty }

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

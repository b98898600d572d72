package sls

// A restore hands back a clean cut: the checkpoint after it flushes what the
// application dirtied and nothing else, history stays bounded along a chain
// of crash/restore cycles because retention is enforced inside the commit,
// the retention policy itself survives the restore, and a standby trims by
// the same rule.

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"aurora/internal/clock"
	"aurora/internal/device"
	"aurora/internal/kern"
	"aurora/internal/mem"
	"aurora/internal/objstore"
	"aurora/internal/rec"
	"aurora/internal/slsfs"
	"aurora/internal/vm"
)

var restoreModeNames = map[RestoreMode]string{RestoreFull: "eager", RestoreLazy: "lazy", RestoreSpeculative: "speculative"}

// restoreContinuing restores "app" from w's live store in the given mode.
func restoreContinuing(t *testing.T, w *world, mode RestoreMode) *Group {
	t.Helper()
	g, _, err := w.o.RestoreGroup("app", w.store, mode, true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCheckpointAfterRestoreFlushesDirtyOnly: in every restore mode the first
// checkpoint after a continuing restore captures exactly the pages written
// since — through the MMU and through a kernel copy-in (pipe data read into
// user memory) — although half the image was paged in clean before; the image
// it commits restores to the same arena, every page under its committed sum.
func TestCheckpointAfterRestoreFlushesDirtyOnly(t *testing.T) {
	const pages, dirtied = 96, 7
	for _, mode := range []RestoreMode{RestoreFull, RestoreLazy, RestoreSpeculative} {
		t.Run(restoreModeNames[mode], func(t *testing.T) {
			w := newWorld(t)
			p := w.k.NewProc("app")
			g := w.o.CreateGroup("app")
			g.Attach(p)
			va, err := p.Mmap(pages*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, pages*vm.PageSize)
			rand.New(rand.NewSource(16)).Read(want)
			if err := p.WriteMem(va, want); err != nil {
				t.Fatal(err)
			}
			rfd, wfd, _ := p.Pipe()
			p.Write(wfd, []byte("copied in by the kernel"))
			if _, err := g.Checkpoint(CkptIncremental); err != nil {
				t.Fatal(err)
			}
			if err := g.Barrier(); err != nil {
				t.Fatal(err)
			}

			w2 := w.crash(t)
			g2 := restoreContinuing(t, w2, mode)
			rp := g2.Procs()[0]
			// Half the image arrives by demand fault (a no-op re-read after
			// a restore that loaded the pages) and must join as clean.
			got := make([]byte, len(want)/2)
			if err := rp.ReadMem(va, got); err != nil || !bytes.Equal(got, want[:len(got)]) {
				t.Fatalf("restored arena differs before any write (err %v)", err)
			}
			write := func(pg int, data []byte) {
				t.Helper()
				off := pg*vm.PageSize + 17
				if err := rp.WriteMem(va+uint64(off), data); err != nil {
					t.Fatal(err)
				}
				copy(want[off:], data)
			}
			for i := 0; i < dirtied-1; i++ {
				write(3+13*i, []byte{0xA0 + byte(i), 0x5A}) // resident-clean and never-touched pages alike
			}
			buf := make([]byte, 64)
			n, err := rp.Read(rfd, buf)
			if err != nil || n == 0 {
				t.Fatalf("pipe after restore: %d bytes, %v", n, err)
			}
			write(90, buf[:n])

			st, err := g2.Checkpoint(CkptIncremental)
			if err != nil {
				t.Fatal(err)
			}
			if st.DirtyPages != dirtied || st.FlushBytes != dirtied*vm.PageSize {
				t.Fatalf("first checkpoint after a %s restore captured %d pages, flushed %d bytes; the application dirtied %d pages (%d bytes)",
					restoreModeNames[mode], st.DirtyPages, st.FlushBytes, dirtied, dirtied*vm.PageSize)
			}
			if err := g2.Barrier(); err != nil {
				t.Fatal(err)
			}

			w3 := w2.crash(t)
			g3 := restoreContinuing(t, w3, RestoreFull)
			got = make([]byte, len(want))
			if err := g3.Procs()[0].ReadMem(va, got); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("arena after crash differs from the reference (err %v)", err)
			}
			var arena objstore.OID
			for key, e := range g3.ents {
				if obj, ok := key.(*vm.Object); ok && obj.Size() == int64(len(want)) {
					arena = e.oid
				}
			}
			// The store hands out a page only under its committed sum.
			page := make([]byte, vm.PageSize)
			for pg := 0; pg < pages; pg++ {
				found, err := w3.store.ReadPage(arena, int64(pg), page)
				if err != nil || !found || !bytes.Equal(page, want[pg*vm.PageSize:(pg+1)*vm.PageSize]) {
					t.Fatalf("page %d of object %d: stored=%v, err %v, or not the reference page", pg, arena, found, err)
				}
			}
		})
	}
}

// TestRestoreChainStaysBounded: twelve crash → restore → one-checkpoint cycles
// under RetainEpochs = 4. Each boot commits once, so a trim that needs the
// NEXT commit to become durable never lands: retained history, the deadlist
// and with them the index grew by one epoch's worth per cycle. Enforced
// inside the commit they are flat.
func TestRestoreChainStaysBounded(t *testing.T) {
	const pages, touched, retain = 512, 64, 4
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	g.RetainEpochs = retain
	va, _ := p.Mmap(pages*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	round := 0
	dirty := func(p *kern.Proc) {
		t.Helper()
		round++
		for i := 0; i < touched; i++ {
			pg := (round*touched + i*7) % pages
			if err := p.WriteMem(va+uint64(pg*vm.PageSize), []byte{byte(round)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	commit := func(g *Group) {
		t.Helper()
		if _, err := g.Checkpoint(CkptIncremental); err != nil {
			t.Fatal(err)
		}
		if err := g.Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < pages; i++ {
		p.WriteMem(va+uint64(i*vm.PageSize), []byte{0xEE})
	}
	for i := 0; i < retain+2; i++ { // fill the retention window first
		dirty(p)
		commit(g)
	}

	var dead, meta []int64
	for cycle := 1; cycle <= 12; cycle++ {
		w = w.crash(t)
		g = restoreContinuing(t, w, RestoreMode(cycle%3))
		if g.RetainEpochs != retain {
			t.Fatalf("cycle %d: restored group retains %d epochs, the group record said %d", cycle, g.RetainEpochs, retain)
		}
		dirty(g.Procs()[0])
		commit(g)
		if got := w.store.RetainedCheckpoints(); len(got) > retain {
			t.Fatalf("cycle %d: %d epochs retained (%v), bound is %d", cycle, len(got), got, retain)
		}
		dead = append(dead, int64(w.store.DeadBlocks()))
		meta = append(meta, w.store.Stats().MetaBytes) // this boot's one commit: records, chunks, index
	}
	for name, series := range map[string][]int64{"deadlist blocks": dead, "metadata bytes per commit": meta} {
		ref := series[4]
		for i := 4; i < len(series); i++ {
			if d := series[i] - ref; ref == 0 || d*10 > ref || -d*10 > ref {
				t.Fatalf("%s not flat from cycle 5 on: %v", name, series)
			}
		}
	}
	if rep := w.store.Fsck(); !rep.OK() {
		t.Fatalf("fsck after the chain: %v", rep.Problems)
	}
	if probs := w.store.AuditLive(); len(probs) > 0 {
		t.Fatalf("audit after the chain: %v", probs)
	}
}

// TestRestoreParentFormatGroupRecord: a group record written before the
// retention field existed (it ends with the journal table) restores, with the
// default retention.
func TestRestoreParentFormatGroupRecord(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	g.RetainEpochs = 4
	va, _ := p.Mmap(1<<20, vm.ProtRead|vm.ProtWrite, false)
	p.WriteMem(va, []byte("old layout"))
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	raw, err := w.store.GetRecord(g.oid)
	if err != nil {
		t.Fatal(err)
	}
	old := rec.NewEncoder()
	old.Append(raw[:len(raw)-4-8]) // drop the seal and the one appended field
	if err := w.store.PutRecord(g.oid, UTGroup, old.Seal()); err != nil {
		t.Fatal(err)
	}
	if _, err := w.store.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	w2 := w.crash(t)
	g2 := restoreContinuing(t, w2, RestoreFull)
	if g2.RetainEpochs != defaultRetainEpochs {
		t.Fatalf("parent-format record restored with retention %d, want the default %d", g2.RetainEpochs, defaultRetainEpochs)
	}
	got := make([]byte, 10)
	if err := g2.Procs()[0].ReadMem(va, got); err != nil || string(got) != "old layout" {
		t.Fatalf("memory = %q, %v", got, err)
	}
}

// TestStandbyTrimsInsideCommit: a 64 MiB standby takes hundreds of 1 MiB
// deltas. Its commits apply the retention the received group record carries,
// so it never fills (it kept every epoch and hit ErrFull at sync 52),
// and the image it fails over to is the primary's. Released blocks become
// allocatable when the standby's clock passes their superblock's completion:
// on one timeline for both machines, as in a fleet, the primary's work moves
// it; a standby on a clock of its own is moved by each stream's arrival (it
// never advanced, never promoted a release, and filled all the same).
func TestStandbyTrimsInsideCommit(t *testing.T) {
	t.Run("fleet-clock", func(t *testing.T) { standbyTrimsInsideCommit(t, false) })
	t.Run("private-clock", func(t *testing.T) { standbyTrimsInsideCommit(t, true) })
}

func standbyTrimsInsideCommit(t *testing.T, privateClock bool) {
	const pages, perSync, retain = 1024, 256, 4
	syncs := 300
	if testing.Short() {
		syncs = 100
	}
	primary := newWorld(t)
	clk, costs := primary.clk, primary.costs
	if privateClock {
		clk = clock.NewVirtual()
	}
	store, err := objstore.Format(device.NewStripe(clk, costs, 4, 64<<10, 16<<20), clk, costs)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := slsfs.Format(store, clk, costs)
	if err != nil {
		t.Fatal(err)
	}
	k := kern.New(clk, costs, vm.NewSystem(mem.New(0), clk, costs), fs)
	standby := &world{clk: clk, costs: costs, store: store, fs: fs, k: k, o: New(k, store)}

	p := primary.k.NewProc("db")
	g := primary.o.CreateGroup("db")
	g.Attach(p)
	g.RetainEpochs = retain
	va, _ := p.Mmap(pages*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	for i := 0; i < pages; i++ {
		p.WriteMem(va+uint64(i*vm.PageSize), []byte{byte(i)})
	}
	rep, err := g.ReplicateTo(standby.o)
	if err != nil {
		t.Fatal(err)
	}
	live := func() int64 { st := store.Stats(); return st.BlocksAllocated - st.BlocksFreed }
	var mid int64
	for s := 1; s <= syncs; s++ {
		if s == syncs/2 {
			mid = live()
		}
		for i := 0; i < perSync; i++ {
			pg := (s*perSync + i) % pages
			p.WriteMem(va+uint64(pg*vm.PageSize)+8, []byte{byte(s), byte(s >> 8)})
		}
		if err := rep.Sync(); err != nil {
			t.Fatalf("sync %d (device full: %v): %v", s, errors.Is(err, objstore.ErrFull), err)
		}
		if rep.LastBytes < perSync*vm.PageSize {
			t.Fatalf("sync %d shipped %d bytes, want a delta of at least %d", s, rep.LastBytes, perSync*vm.PageSize)
		}
	}
	if end := live(); end > mid+mid/10 {
		t.Fatalf("standby holds %d blocks after %d syncs, %d after %d: releases are not coming back", end, syncs, mid, syncs/2)
	}
	if got := store.RetainedCheckpoints(); len(got) > retain {
		t.Fatalf("standby retains %d epochs (%v), the group's bound is %d", len(got), got, retain)
	}
	if r := store.Fsck(); !r.OK() {
		t.Fatalf("standby fsck: %v", r.Problems)
	}
	if probs := store.AuditLive(); len(probs) > 0 {
		t.Fatalf("standby audit: %v", probs)
	}
	want := make([]byte, pages*vm.PageSize)
	if err := p.ReadMem(va, want); err != nil {
		t.Fatal(err)
	}
	fg, _, err := rep.Failover(RestoreFull)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := fg.Procs()[0].ReadMem(va, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("failover image differs from the primary's (err %v)", err)
	}
}

// TestFailoverCostIndependentOfSyncCount: a standby on a clock of its own is
// brought to each stream's arrival time, so its device queue has drained by
// the time it is promoted and Failover pays for the restore alone. (It paid
// for every write the standby had ever taken: the clock never moved, so the
// whole history was still "in flight".)
func TestFailoverCostIndependentOfSyncCount(t *testing.T) {
	const pages, perSync = 4096, 64 // 16 MiB image
	cost := func(syncs int) int64 {
		primary, standby := newWorld(t), newWorld(t)
		p := primary.k.NewProc("db")
		g := primary.o.CreateGroup("db")
		g.Attach(p)
		g.RetainEpochs = 4
		va, _ := p.Mmap(pages*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
		for i := 0; i < pages; i++ {
			p.WriteMem(va+uint64(i*vm.PageSize), []byte{byte(i)})
		}
		rep, err := g.ReplicateTo(standby.o)
		if err != nil {
			t.Fatal(err)
		}
		for s := 1; s <= syncs; s++ {
			for i := 0; i < perSync; i++ {
				p.WriteMem(va+uint64(i*vm.PageSize)+8, []byte{byte(s), byte(s >> 8)})
			}
			if err := rep.Sync(); err != nil {
				t.Fatalf("sync %d: %v", s, err)
			}
		}
		t0 := standby.clk.Now()
		if _, _, err := rep.Failover(RestoreFull); err != nil {
			t.Fatal(err)
		}
		return int64(standby.clk.Now() - t0)
	}
	// Ten syncs in, the 16 MiB seed has left the standby's queue; from there
	// on the cost is the restore's.
	few, many := cost(10), cost(200)
	if many != few {
		t.Fatalf("failover after 200 syncs costs %d virt-ns, after 10 %d: the standby is paying for its history", many, few)
	}
}

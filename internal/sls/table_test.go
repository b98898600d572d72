package sls

import (
	"errors"
	"testing"

	"aurora/internal/kern"
)

// requireTableIsLive: after a committed cut, the group's table holds the
// cut's live set and nothing else — every entry walked by that cut, held by
// the store and filed under its OID in both indexes, and as many entries as
// the cut had objects (the group below holds no vnode and no journal, the
// two kinds a cut walks without counting).
func requireTableIsLive(t *testing.T, g *Group, st CheckpointStats) {
	t.Helper()
	if n := g.byOID.Len(); n != len(g.ents) || n != st.Objects {
		t.Fatalf("the table holds %d entries by key and %d by OID; the cut had %d objects", len(g.ents), n, st.Objects)
	}
	for key, e := range g.ents {
		if byOID, _ := g.byOID.Get(oidKey(e.oid)); byOID != e || e.key != key {
			t.Fatalf("%T: entry of OID %d is filed apart in the two indexes", key, e.oid)
		}
		if !e.live || e.cut != g.cut || !g.o.Store.Exists(e.oid) {
			t.Fatalf("%T (OID %d): live %v, walked by cut %d of %d, in the store %v",
				key, e.oid, e.live, e.cut, g.cut, g.o.Store.Exists(e.oid))
		}
	}
}

// TestTableHoldsTheLiveSet: objects that come and go between checkpoints —
// 200 pipe pairs, 200 connected socket pairs — leave the group's table with
// their OIDs, so the table stays the size of what is live; and a restored
// device, entered under its old OID only, leaves it at the first cut after
// the restore, which files the device under a new OID and deletes the old.
func TestTableHoldsTheLiveSet(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	lfd, _ := p.Socket(kern.KindSocketUnix)
	if err := errors.Join(p.Bind(lfd, "/churn"), p.Listen(lfd)); err != nil {
		t.Fatal(err)
	}
	checkpoint := func(g *Group) CheckpointStats {
		t.Helper()
		st, err := g.Checkpoint(CkptIncremental)
		if err != nil {
			t.Fatal(err)
		}
		requireTableIsLive(t, g, st)
		return st
	}
	idle := checkpoint(g).Objects
	for i := 0; i < 200; i++ {
		rfd, wfd, err := p.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		checkpoint(g)
		if err := errors.Join(p.Close(rfd), p.Close(wfd)); err != nil {
			t.Fatal(err)
		}
		cfd, _ := p.Socket(kern.KindSocketUnix)
		if err := p.Connect(cfd, "/churn"); err != nil {
			t.Fatal(err)
		}
		afd, err := p.Accept(lfd)
		if err != nil {
			t.Fatal(err)
		}
		checkpoint(g)
		if err := errors.Join(p.Close(cfd), p.Close(afd)); err != nil {
			t.Fatal(err)
		}
	}
	if st := checkpoint(g); st.Objects != idle {
		t.Fatalf("after the churn the cut holds %d objects, before it %d", st.Objects, idle)
	}

	fd, err := p.OpenDevice(kern.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	checkpoint(g)
	f, _ := p.FDs.Get(fd)
	old := g.oidOf(behind(f))
	w2 := w.crash(t)
	g2 := restoreContinuing(t, w2, RestoreFull)
	if e := g2.ents[old]; e == nil || !e.live {
		t.Fatalf("the restored device's OID %d is not in the table as live: %+v", old, e)
	}
	checkpoint(g2)
	f2, _ := g2.Procs()[0].FDs.Get(fd)
	if now := g2.oidOf(behind(f2)); now == old || now == 0 {
		t.Fatalf("the restored device is filed under OID %d; it was %d", now, old)
	}
	if _, held := g2.byOID.Get(oidKey(old)); held || w2.store.Exists(old) {
		t.Fatalf("the device's old OID %d: in the table %v, in the store %v", old, held, w2.store.Exists(old))
	}
}

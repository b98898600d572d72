package aurora

import (
	"encoding/binary"
	"testing"
)

// walGroups is three groups on one store, so on one WAL ring: a fold by one
// group folds every group's frames. a commits 2 as a WAL frame; b's fold
// flushes enough that c's WAL commit of 7, sequence 1 of the next
// generation, lands behind it before the fold is durable.
type walGroups struct {
	t    *testing.T
	m    *Machine
	apps map[string]*walApp
	a    CheckpointStats // a's first WAL commit
	fold CheckpointStats // b's
	c    CheckpointStats // c's WAL commit
}

type walApp struct {
	g  *Group
	p  *Proc
	va uint64
}

const walGroupsBulk = 32 << 20

func newWALGroups(t *testing.T) *walGroups {
	m, err := NewMachine(Defaults())
	if err != nil {
		t.Fatal(err)
	}
	w := &walGroups{t: t, m: m, apps: map[string]*walApp{}}
	for _, name := range []string{"a", "b", "c"} {
		p := m.Spawn(name)
		g, err := m.Attach(name, p)
		if err != nil {
			t.Fatal(err)
		}
		va, err := p.Mmap(walGroupsBulk, ProtRead|ProtWrite, false)
		if err != nil {
			t.Fatal(err)
		}
		w.apps[name] = &walApp{g, p, va}
		if _, err := g.Checkpoint(CkptIncremental); err != nil {
			t.Fatal(err)
		}
		if err := g.Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	w.set("a", 2)
	w.a = w.commit("a", CkptWAL)
	b := w.apps["b"]
	for off := uint64(0); off < walGroupsBulk; off += PageSize {
		if err := b.p.WriteMem(b.va+off, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	w.fold = w.commit("b", CkptIncremental)
	w.set("c", 7)
	w.c = w.commit("c", CkptWAL)
	if w.c.WALSeq != 1 || w.c.DurableAt <= w.fold.DurableAt || m.Now() >= w.fold.DurableAt {
		t.Fatalf("setup: c's frame %d durable at %v, fold durable at %v, now %v", w.c.WALSeq, w.c.DurableAt, w.fold.DurableAt, m.Now())
	}
	return w
}

func (w *walGroups) set(name string, v uint64) {
	w.t.Helper()
	a := w.apps[name]
	if err := a.p.WriteMem(a.va, binary.LittleEndian.AppendUint64(nil, v)); err != nil {
		w.t.Fatal(err)
	}
}

func (w *walGroups) commit(name string, kind CheckpointKind) CheckpointStats {
	w.t.Helper()
	st, err := w.apps[name].g.Checkpoint(kind)
	if err != nil {
		w.t.Fatal(err)
	}
	return st
}

// crashRestores crashes the machine and checks that each named group
// restores the value it last committed.
func (w *walGroups) crashRestores(want map[string]uint64) {
	w.t.Helper()
	m2, err := w.m.Crash()
	if err != nil {
		w.t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		v, ok := want[name]
		if !ok {
			continue
		}
		g, _, err := m2.Restore(name)
		if err != nil {
			w.t.Fatal(err)
		}
		buf := make([]byte, 8)
		if err := g.Procs()[0].ReadMem(w.apps[name].va, buf); err != nil {
			w.t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint64(buf); got != v {
			w.t.Errorf("%s restores %d, want %d", name, got, v)
		}
	}
}

// Both later commits are barriered, so both must survive the crash: c's
// frame behind the unsettled fold, and a's next frame after it.
func TestCrashKeepsWALCommitsBehindAnUnsettledFold(t *testing.T) {
	w := newWALGroups(t)
	w.set("a", 3)
	w.commit("a", CkptWAL)
	for _, name := range []string{"a", "c"} {
		if err := w.apps[name].g.Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	w.crashRestores(map[string]uint64{"a": 3, "c": 7})
}

// A barrier waits on its own group's commit. After b's fold, c's frame
// reuses sequence 1, the number a's own frame had; a's barrier must not wait
// for c's frame (nor hold a's externally synchronized messages until then).
// a's frame landed long ago, so the barrier returns at once, and a crash
// right after it still recovers a's value: the fold has not landed, so
// recovery replays a's frame on the previous epoch.
func TestBarrierWaitsOnItsOwnWALCommit(t *testing.T) {
	w := newWALGroups(t)
	now := w.m.Now()
	if w.a.WALSeq != w.c.WALSeq || w.a.DurableAt > now {
		t.Fatalf("setup: a's frame %d durable at %v, c's frame %d, now %v", w.a.WALSeq, w.a.DurableAt, w.c.WALSeq, now)
	}
	if err := w.apps["a"].g.Barrier(); err != nil {
		t.Fatal(err)
	}
	if got := w.m.Now(); got != now {
		t.Fatalf("a's barrier moved the clock %v -> %v; c's frame lands at %v", now, got, w.c.DurableAt)
	}
	w.crashRestores(map[string]uint64{"a": 2})
}

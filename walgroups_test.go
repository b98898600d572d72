package aurora

import (
	"encoding/binary"
	"testing"
)

// Groups share one store and so one WAL ring: a fold by one group folds every
// group's frames. Here b's fold flushes enough that c's WAL commit lands
// behind it before it is durable, and a's next WAL commit comes after it is.
// Both commits are barriered, so both must survive the crash.
func TestCrashKeepsWALCommitsBehindAnUnsettledFold(t *testing.T) {
	m, err := NewMachine(Defaults())
	if err != nil {
		t.Fatal(err)
	}
	const bulk = 32 << 20
	type app struct {
		g  *Group
		p  *Proc
		va uint64
	}
	apps := map[string]*app{}
	for _, name := range []string{"a", "b", "c"} {
		p := m.Spawn(name)
		g, err := m.Attach(name, p)
		if err != nil {
			t.Fatal(err)
		}
		va, err := p.Mmap(bulk, ProtRead|ProtWrite, false)
		if err != nil {
			t.Fatal(err)
		}
		apps[name] = &app{g, p, va}
		if _, err := g.Checkpoint(CkptIncremental); err != nil {
			t.Fatal(err)
		}
		if err := g.Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	set := func(name string, v uint64) {
		t.Helper()
		a := apps[name]
		if err := a.p.WriteMem(a.va, binary.LittleEndian.AppendUint64(nil, v)); err != nil {
			t.Fatal(err)
		}
	}
	commit := func(name string, kind CheckpointKind) CheckpointStats {
		t.Helper()
		st, err := apps[name].g.Checkpoint(kind)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	set("a", 2)
	commit("a", CkptWAL)
	b := apps["b"]
	for off := uint64(0); off < bulk; off += PageSize {
		if err := b.p.WriteMem(b.va+off, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	fold := commit("b", CkptIncremental)
	set("c", 7)
	if st := commit("c", CkptWAL); st.WALSeq != 1 || st.DurableAt <= fold.DurableAt || m.Now() >= fold.DurableAt {
		t.Fatalf("setup: c's frame %d durable at %v, fold durable at %v, now %v", st.WALSeq, st.DurableAt, fold.DurableAt, m.Now())
	}
	set("a", 3)
	commit("a", CkptWAL)
	for _, name := range []string{"a", "c"} {
		if err := apps[name].g.Barrier(); err != nil {
			t.Fatal(err)
		}
	}

	m2, err := m.Crash()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		name string
		want uint64
	}{{"a", 3}, {"c", 7}} {
		g, _, err := m2.Restore(r.name)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 8)
		if err := g.Procs()[0].ReadMem(apps[r.name].va, buf); err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint64(buf); got != r.want {
			t.Errorf("%s restores %d, want %d", r.name, got, r.want)
		}
	}
}

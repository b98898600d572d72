package sls

// A standby's journal against its source's: after every sync that lands, the
// standby holds the source's entries, in order, whatever happened to the
// journal between syncs.

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"aurora/internal/net"
	"aurora/internal/objstore"
	"aurora/internal/rec"
	"aurora/internal/vm"
)

// journalEntries reads oid's entries on a store.
func journalEntries(s *objstore.Store, oid objstore.OID) ([]objstore.Entry, error) {
	j, err := s.OpenJournal(oid)
	if err != nil {
		return nil, err
	}
	return j.Entries()
}

// journalTail reads oid's frames on a store and returns the mark at their
// tail.
func journalTail(t *testing.T, s *objstore.Store, oid objstore.OID) objstore.JournalMark {
	t.Helper()
	j, err := s.OpenJournal(oid)
	if err != nil {
		t.Fatal(err)
	}
	_, m, err := j.ReadFrames(objstore.JournalMark{}, maxStreamItem)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sameEntries compares a standby's journal with its source's.
func sameEntries(src, dst *objstore.Store, oid objstore.OID) error {
	want, err := journalEntries(src, oid)
	if err != nil {
		return fmt.Errorf("source journal: %w", err)
	}
	got, err := journalEntries(dst, oid)
	if err != nil {
		return fmt.Errorf("standby journal: %w", err)
	}
	if len(got) != len(want) {
		return fmt.Errorf("standby journal holds %d entries, source %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].Payload, want[i].Payload) {
			return fmt.Errorf("entry %d: standby %q, source %q", i, got[i].Payload, want[i].Payload)
		}
		if got[i].Seq != want[i].Seq {
			return fmt.Errorf("entry %d: standby seq %d, source %d", i, got[i].Seq, want[i].Seq)
		}
	}
	return nil
}

// TestStandbyJournalMirrorsSource syncs a journaled group to a standby over
// both transports; after the seed and after every sync that lands, the
// standby's entries are the source's. A step runs on the source before its
// sync; a step marked failsCommit makes the standby's commit fail, and the
// sync with it.
func TestStandbyJournalMirrorsSource(t *testing.T) {
	type step struct {
		do          func(j *objstore.Journal) error
		failsCommit bool
	}
	add := func(payloads ...string) func(*objstore.Journal) error {
		return func(j *objstore.Journal) error {
			for _, p := range payloads {
				if _, err := j.Append([]byte(p)); err != nil {
					return err
				}
			}
			return nil
		}
	}
	truncateThen := func(payloads ...string) func(*objstore.Journal) error {
		return func(j *objstore.Journal) error {
			j.Truncate()
			return add(payloads...)(j)
		}
	}
	// fill appends the one payload that ends its frame on the extent's last
	// byte (the frame header is what Used grows by beyond the payload).
	fill := func(j *objstore.Journal) error {
		before := j.Used()
		if _, err := j.Append(nil); err != nil {
			return err
		}
		header := j.Used() - before
		last := bytes.Repeat([]byte{0xa5}, int(j.Capacity()-j.Used()-header))
		if _, err := j.Append(last); err != nil {
			return err
		}
		if _, err := j.Append([]byte{1}); !errors.Is(err, objstore.ErrJournalFull) {
			return fmt.Errorf("append past capacity: err = %v, want ErrJournalFull", err)
		}
		return nil
	}
	cases := []struct {
		name     string
		capacity int64
		steps    []step
	}{
		{"append-only", 1 << 16, []step{
			{do: add("a")}, {do: add("b", "c")}, {do: add()}, {do: add("d", "e", "f")},
		}},
		{"truncate between syncs", 1 << 16, []step{
			{do: add("a", "b")}, {do: truncateThen("c")}, {do: add("d")}, {do: truncateThen()}, {do: add("e")},
		}},
		{"exact capacity", objstore.BlockSize, []step{
			{do: add(string(bytes.Repeat([]byte{0x5a}, 100)))}, {do: fill}, {do: truncateThen("after the full extent")},
		}},
		{"failed commit, truncate, retry", 1 << 16, []step{
			{do: add("a")}, {do: add("b"), failsCommit: true}, {do: truncateThen("c")}, {do: add("d")},
		}},
	}
	for _, tc := range cases {
		for _, wired := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/wired=%v", tc.name, wired), func(t *testing.T) {
				src, err := newWorldE()
				if err != nil {
					t.Fatal(err)
				}
				flaky := &flakyDev{}
				dst, err := newWorldOn(func(d objstore.BlockDev) objstore.BlockDev {
					flaky.BlockDev = d
					return flaky
				})
				if err != nil {
					t.Fatal(err)
				}
				p := src.k.NewProc("app")
				g := src.o.CreateGroup("app")
				g.Period = 0
				if err := g.Attach(p); err != nil {
					t.Fatal(err)
				}
				va, err := p.Mmap(4*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
				if err != nil {
					t.Fatal(err)
				}
				j, err := g.Journal("wal", tc.capacity)
				if err != nil {
					t.Fatal(err)
				}
				joid := g.journals["wal"]
				var conn *net.Conn
				if wired {
					conn = net.NewConn(net.NewPipe(src.clk, net.DefaultParams(), net.Plan{}, net.Plan{}), src.clk, replConfig(), nil)
				}
				rep, err := g.ReplicateToVia(dst.o, conn)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameEntries(src.store, dst.store, joid); err != nil {
					t.Fatalf("after the seed: %v", err)
				}
				for i, st := range tc.steps {
					if err := p.WriteMem(va, []byte{byte(i)}); err != nil {
						t.Fatal(err)
					}
					if err := st.do(j); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
					flaky.armed = st.failsCommit
					err := rep.Sync()
					if st.failsCommit {
						if !errors.Is(err, errCommitFailed) {
							t.Fatalf("step %d: sync over a failing standby commit: err = %v, want the injected failure", i, err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("step %d: sync: %v", i, err)
					}
					if err := sameEntries(src.store, dst.store, joid); err != nil {
						t.Fatalf("after step %d: %v", i, err)
					}
				}
				if rep := dst.store.Fsck(); !rep.OK() {
					t.Fatalf("standby fsck: %v", rep.Problems)
				}
			})
		}
	}
}

// TestJournaledStandbyKeepsItsExtent syncs a group with a 4 MiB journal to a
// 64 MiB standby 200 times, one append per sync, each shipping that append
// and not the megabyte the standby already holds. A receive used to rebuild
// the journal on a fresh extent every time, and the allocator only bumps for
// a run, so the standby was full after a dozen syncs. Now a sync extends the
// extent the standby holds, which stays put. A generation change (Truncate)
// still costs a fresh extent: removing that cost is the extent allocator's
// job (ROADMAP, "Free space as extents"). This is also the first piece of
// the standby soak ROADMAP asks for.
func TestJournaledStandbyKeepsItsExtent(t *testing.T) {
	src, err := newWorldE()
	if err != nil {
		t.Fatal(err)
	}
	dst, err := newWorldSized(64<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := src.k.NewProc("app")
	g := src.o.CreateGroup("app")
	g.Period = 0
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}
	va, err := p.Mmap(4*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	j, err := g.Journal("wal", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	joid := g.journals["wal"]
	// A megabyte the standby holds from the seed on: no sync resends it.
	for j.Used() < 1<<20 {
		if _, err := j.Append(make([]byte, 4000)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := g.ReplicateTo(dst.o)
	if err != nil {
		t.Fatal(err)
	}
	extent := journalTail(t, dst.store, joid).Extent

	const syncs = 200
	failed := 0
	var first error
	for i := 0; i < syncs; i++ {
		if err := p.WriteMem(va, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := j.Append([]byte(fmt.Sprintf("entry %d", i))); err != nil {
			t.Fatal(err)
		}
		if err := rep.Sync(); err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("sync %d: %w", i, err)
			}
		} else if rep.LastBytes > 64<<10 {
			t.Fatalf("sync %d shipped %d bytes for one append", i, rep.LastBytes)
		}
	}
	if failed != 0 {
		t.Fatalf("failed=%d of %d syncs; first: %v", failed, syncs, first)
	}
	if got := journalTail(t, dst.store, joid).Extent; got != extent {
		t.Fatalf("standby journal moved from extent %#x to %#x without a generation change", extent, got)
	}
	if err := sameEntries(src.store, dst.store, joid); err != nil {
		t.Fatal(err)
	}
	if rep := dst.store.Fsck(); !rep.OK() {
		t.Fatalf("standby fsck: %v", rep.Problems)
	}
}

// TestRecvRefusesHostileFrames: a journal item whose frames the standby
// cannot take as sent is refused as rec.ErrCorrupt, and the standby's store
// is as it was. Every forged run is made of real frames; the last case ships
// the honest run and must land.
func TestRecvRefusesHostileFrames(t *testing.T) {
	src, dst := newWorld(t), newWorld(t)
	p := src.k.NewProc("app")
	g := src.o.CreateGroup("app")
	g.Period = 0
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}
	const capacity = 1 << 16
	j, err := g.Journal("wal", capacity)
	if err != nil {
		t.Fatal(err)
	}
	joid := g.journals["wal"]
	frames := func(j *objstore.Journal, from objstore.JournalMark) []byte {
		t.Helper()
		runs, _, err := j.ReadFrames(from, maxStreamItem)
		if err != nil || len(runs) != 1 {
			t.Fatalf("read frames: %d runs, err %v", len(runs), err)
		}
		return runs[0].Frames
	}
	appendAll := func(j *objstore.Journal, payloads ...string) {
		t.Helper()
		for _, pl := range payloads {
			if _, err := j.Append([]byte(pl)); err != nil {
				t.Fatal(err)
			}
		}
	}

	appendAll(j, "a", "b")
	rep, err := g.ReplicateTo(dst.o)
	if err != nil {
		t.Fatal(err)
	}
	at := journalTail(t, dst.store, joid) // the standby's tail: the frames of a and b
	appendAll(j, "c", "d")
	tail := frames(j, rep.marks[joid]) // the frames of c and d, seqs 3 and 4
	one := len(tail) / 2               // c and d frame to the same length

	// Real frames of another generation, and one frame longer than a block.
	other, err := g.Journal("other", capacity)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(other, "p", "q", "r")
	other.Truncate()
	appendAll(other, "x") // seq 4: it follows the standby's tail, only its generation is wrong
	gen2 := frames(other, objstore.JournalMark{})
	big, err := g.Journal("big", capacity)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(big, string(bytes.Repeat([]byte{7}, objstore.BlockSize)))
	long := frames(big, objstore.JournalMark{})

	flipped := append([]byte(nil), tail...)
	flipped[len(flipped)-1] ^= 1
	swapped := append(append([]byte(nil), tail[one:]...), tail[:one]...)
	lacking := src.store.NewOID()

	state := dst.o.recvState["app"]
	live := []objstore.OID{lacking}
	for oid := range state.live {
		live = append(live, oid)
	}
	item := func(oid objstore.OID, capacity int64, off int64, frames []byte) []byte {
		return forgeJournal(oid, UTMemObject, capacity, objstore.FrameRun{Off: off, Gen: at.Gen, Frames: frames})
	}
	for _, tc := range []struct {
		name string
		item []byte
		why  string // what the refusal says
	}{
		{"bad frame CRC", item(joid, capacity, at.Off, flipped), "not a frame following seq 3"},
		{"frame generation other than the item's", item(joid, capacity, at.Off, gen2), "of generation 2"},
		{"non-ascending seq", item(joid, capacity, at.Off, swapped), "not a frame following seq 4"},
		{"offset past the tail", item(joid, capacity, at.Off+int64(one), tail[one:]), "past the tail"},
		{"bytes past the capacity", item(joid, objstore.BlockSize, 0, long), "overrun"},
		{"tail for a journal the standby lacks", item(lacking, capacity, at.Off, tail), "does not hold"},
		{"", item(joid, capacity, at.Off, tail), ""}, // the honest run
	} {
		devBefore, objsBefore := dst.dev.Stats(), dst.store.Objects()
		stream := forgeDelta("app", g.oid, state.epoch+1, state.epoch, live, tc.item)
		_, err := dst.o.Recv(bytes.NewReader(stream))
		if tc.name == "" {
			if err != nil {
				t.Fatalf("the honest run: %v", err)
			}
			if err := sameEntries(src.store, dst.store, joid); err != nil {
				t.Fatalf("after the honest run: %v", err)
			}
			continue
		}
		if !errors.Is(err, rec.ErrCorrupt) || !strings.Contains(err.Error(), tc.why) {
			t.Fatalf("%s: err = %v, want rec.ErrCorrupt saying %q", tc.name, err, tc.why)
		}
		if dev := dst.dev.Stats(); dev.Writes != devBefore.Writes || dev.BytesWritten != devBefore.BytesWritten {
			t.Fatalf("%s: the refused stream wrote %d bytes", tc.name, dev.BytesWritten-devBefore.BytesWritten)
		}
		if objs := dst.store.Objects(); !slices.Equal(objs, objsBefore) {
			t.Fatalf("%s: the standby's objects went from %v to %v", tc.name, objsBefore, objs)
		}
		if m := journalTail(t, dst.store, joid); m != at {
			t.Fatalf("%s: the standby's journal moved from %+v to %+v", tc.name, at, m)
		}
		if dst.o.recvState["app"].epoch != state.epoch {
			t.Fatalf("%s: the standby's base moved", tc.name)
		}
	}
}

package sls

// FuzzRecv throws arbitrary byte streams at the checkpoint stream decoder.
// The invariant: Recv on a fresh machine either succeeds or returns an
// error — it never panics and never allocates unboundedly from a corrupt
// length header. Seeds are real Send/SendDelta output plus truncations and
// header mutations so the fuzzer starts at the interesting surface.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"aurora/internal/objstore"
	"aurora/internal/rec"
	"aurora/internal/vm"
)

// fuzzSeedStreams builds real checkpoint streams: a full image, a delta
// carrying page writes, a whole journal and a deleted object, and a delta
// carrying only a journal's new frames.
func fuzzSeedStreams() ([][]byte, error) {
	w, err := newWorldE()
	if err != nil {
		return nil, err
	}
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	if err := g.Attach(p); err != nil {
		return nil, err
	}
	va, err := p.Mmap(8*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		return nil, err
	}
	doomed, err := p.Mmap(4*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		return nil, err
	}
	if err := p.WriteMem(va, []byte("fuzz seed state")); err != nil {
		return nil, err
	}
	if err := p.WriteMem(doomed, []byte("gone soon")); err != nil {
		return nil, err
	}
	j, err := g.Journal("wal", 1<<16)
	if err != nil {
		return nil, err
	}
	if _, err := j.Append([]byte("journal frame")); err != nil {
		return nil, err
	}
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		return nil, err
	}
	if err := g.Barrier(); err != nil {
		return nil, err
	}
	base := g.lastEpoch

	var full bytes.Buffer
	if err := g.Send(&full); err != nil {
		return nil, err
	}

	if err := p.Munmap(doomed); err != nil {
		return nil, err
	}
	if err := p.WriteMem(va+vm.PageSize, []byte("delta page")); err != nil {
		return nil, err
	}
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		return nil, err
	}
	if err := g.Barrier(); err != nil {
		return nil, err
	}
	var delta bytes.Buffer
	_, marks, err := g.encodeStream(&delta, base, nil)
	if err != nil {
		return nil, err
	}

	// A replica's delta: the journal's frames past the mark the last stream
	// left, at their offset in the extent.
	if _, err := j.Append([]byte("tail frame")); err != nil {
		return nil, err
	}
	base = g.lastEpoch
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		return nil, err
	}
	if err := g.Barrier(); err != nil {
		return nil, err
	}
	var tail bytes.Buffer
	if _, _, err := g.encodeStream(&tail, base, marks); err != nil {
		return nil, err
	}
	return [][]byte{full.Bytes(), delta.Bytes(), tail.Bytes()}, nil
}

func FuzzRecv(f *testing.F) {
	streams, err := fuzzSeedStreams()
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range streams {
		f.Add(s)
		if len(s) > 64 {
			f.Add(s[:len(s)/2]) // truncated mid-item
			f.Add(s[:5])        // truncated inside the head's length header
			mut := append([]byte(nil), s...)
			mut[0] = 0xff // inflated head length
			f.Add(mut)
			mut2 := append([]byte(nil), s...)
			mut2[len(mut2)/2] ^= 0x80 // flipped bit mid-stream
			f.Add(mut2)
		}
	}
	// Well-formed framing around an item for an object the head never listed.
	f.Add(forgeStream("evil", 100, []objstore.OID{100}, forgeRecord(ManifestOID, UTManifest, nil)))
	f.Add([]byte{})
	f.Add([]byte("AURS"))
	f.Add(bytes.Repeat([]byte{0xff}, 32))

	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := newWorldE()
		if err != nil {
			t.Skip()
		}
		// Must not panic; success or error are both acceptable outcomes.
		name, err := w.o.Recv(bytes.NewReader(data))
		if err == nil {
			// An accepted stream must have registered a restorable group
			// or at least left the store healthy.
			if rep := w.store.Fsck(); !rep.OK() {
				t.Fatalf("accepted stream %q left an unhealthy store: %v", name, rep.Problems)
			}
		}
	})
}

// forgeStream frames a full (non-delta) checkpoint stream by hand: a head
// naming group oid and the live list, the given items, and the end marker —
// what a corrupt or hostile sender could put on the wire.
func forgeStream(name string, groupOID objstore.OID, live []objstore.OID, items ...[]byte) []byte {
	return forgeDelta(name, groupOID, 1, 0, live, items...)
}

// forgeDelta is forgeStream for a stream of epoch src over base (0: a full
// stream).
func forgeDelta(name string, groupOID objstore.OID, src, base objstore.Epoch, live []objstore.OID, items ...[]byte) []byte {
	head := rec.NewEncoder()
	head.U32(streamMagic)
	head.U8(streamVersion)
	head.Str(name)
	head.U64(uint64(groupOID))
	head.U64(uint64(src))
	head.U64(uint64(base))
	head.U32(uint32(len(live)))
	for _, oid := range live {
		head.U64(uint64(oid))
	}
	end := rec.NewEncoder()
	end.U8(itemEnd)
	var out []byte
	for _, item := range append(append([][]byte{head.Seal()}, items...), end.Seal()) {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(item)))
		out = append(out, item...)
	}
	return out
}

func forgeRecord(oid objstore.OID, ut uint16, raw []byte) []byte {
	e := rec.NewEncoder()
	e.U8(itemRecord)
	e.U64(uint64(oid))
	e.U16(ut)
	e.Bytes(raw)
	return e.Seal()
}

// TestRecvRefusesUnlistedOIDs: a stream item may touch only an object the
// stream's head listed, and never the receiver's manifest or flight ring.
// Each forged stream must be refused as corrupt before the item it carries
// has changed the object it aims at.
func TestRecvRefusesUnlistedOIDs(t *testing.T) {
	pagesHead := func(oid objstore.OID) []byte {
		e := rec.NewEncoder()
		e.U8(itemPages)
		e.U64(uint64(oid))
		e.I64(vm.PageSize)
		return e.Seal()
	}
	journal := func(oid objstore.OID) []byte {
		return journalItem(oid, UTMemObject, 1<<16, objstore.FrameRun{Gen: 1})
	}
	const evil = objstore.OID(1 << 40) // the forged group's own, listed, record
	for _, tc := range []struct {
		name string
		live []objstore.OID
		item func(victim objstore.OID) []byte
		aim  func(w *world, g *Group) objstore.OID
	}{
		{"record over the manifest", []objstore.OID{evil},
			func(v objstore.OID) []byte { return forgeRecord(v, UTManifest, nil) },
			func(*world, *Group) objstore.OID { return ManifestOID }},
		{"record over the manifest, listed", []objstore.OID{evil, ManifestOID},
			func(v objstore.OID) []byte { return forgeRecord(v, UTManifest, nil) },
			func(*world, *Group) objstore.OID { return ManifestOID }},
		{"record over the flight ring, listed", []objstore.OID{evil, objstore.FlightOID},
			func(v objstore.OID) []byte { return forgeRecord(v, 0, []byte("x")) },
			func(*world, *Group) objstore.OID { return objstore.FlightOID }},
		{"record over another group's record", []objstore.OID{evil},
			func(v objstore.OID) []byte { return forgeRecord(v, UTGroup, []byte("x")) },
			func(_ *world, g *Group) objstore.OID { return g.oid }},
		{"journal over another group's record", []objstore.OID{evil},
			journal,
			func(_ *world, g *Group) objstore.OID { return g.oid }},
		{"pages into an unlisted object", []objstore.OID{evil},
			pagesHead,
			func(w *world, _ *Group) objstore.OID { return w.store.NewOID() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t)
			g := w.o.CreateGroup("local")
			g.Attach(w.k.NewProc("local"))
			if _, err := g.Checkpoint(CkptIncremental); err != nil {
				t.Fatal(err)
			}
			victim := tc.aim(w, g)
			existed := w.store.Exists(victim)
			before, _ := w.store.GetRecord(victim)
			stream := forgeStream("evil", evil, tc.live, tc.item(victim))
			if _, err := w.o.Recv(bytes.NewReader(stream)); !errors.Is(err, rec.ErrCorrupt) {
				t.Fatalf("err = %v, want rec.ErrCorrupt", err)
			}
			after, _ := w.store.GetRecord(victim)
			if w.store.Exists(victim) != existed || !bytes.Equal(after, before) {
				t.Fatalf("object %d changed under a refused stream: existed %v -> %v, %d -> %d bytes",
					victim, existed, w.store.Exists(victim), len(before), len(after))
			}
		})
	}
}

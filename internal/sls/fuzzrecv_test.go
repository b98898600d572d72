package sls

// FuzzRecv throws arbitrary byte streams at the checkpoint stream decoder,
// through both of its entry points: Recv over a reader and the in-memory
// payload a replica lands. The invariants: on a fresh machine each either
// succeeds or returns an error — it never panics, never allocates unboundedly
// from a corrupt length header and never reads past the payload — and both
// reach the same verdict. Seeds are real full and delta Send output plus
// truncations and header mutations so the fuzzer starts at the interesting
// surface.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
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
	var delta rec.Encoder
	marks, err := g.encodeStream(&delta, base, nil)
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
	var tail rec.Encoder
	if _, err := g.encodeStream(&tail, base, marks); err != nil {
		return nil, err
	}
	return [][]byte{full.Bytes(), delta.Raw(), tail.Raw()}, nil
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
	// A listed record just below the top of the OID space, which would move
	// the allocator to the wrap.
	f.Add(forgeStream("top", 100, []objstore.OID{100, topOID}, forgeRecord(topOID, 0, []byte("x"))))
	// A stream cut right after a page whose data ends the payload: the decoder
	// must not read past it, and finds no next item.
	page := bytes.Repeat([]byte{0x5a}, objstore.BlockSize)
	f.Add(framed(forgeHead("cut", 100, 1, 0, []objstore.OID{100, 101}),
		forgePages(101, vm.PageSize, nil), forgePages(101, 0, page)))
	f.Add([]byte{})
	f.Add([]byte("AURS"))
	f.Add(bytes.Repeat([]byte{0xff}, 32))

	f.Fuzz(func(t *testing.T, data []byte) {
		var verdicts [2]string
		for i, recv := range []func(*Orchestrator) (string, error){
			func(o *Orchestrator) (string, error) { return o.Recv(bytes.NewReader(data)) },
			func(o *Orchestrator) (string, error) { return o.recvPayload(data) },
		} {
			w, err := newWorldE()
			if err != nil {
				t.Skip()
			}
			// Must not panic; success or error are both acceptable outcomes.
			name, err := recv(w.o)
			if err == nil {
				// An accepted stream must have registered a restorable group
				// or at least left the store healthy, with an allocator that
				// hands out no OID the store holds.
				if rep := w.store.Fsck(); !rep.OK() {
					t.Fatalf("accepted stream %q left an unhealthy store: %v", name, rep.Problems)
				}
				if err := allocatorSound(w.store); err != nil {
					t.Fatalf("accepted stream %q: %v", name, err)
				}
			}
			verdicts[i] = fmt.Sprintf("name %q, err %v", name, err)
		}
		if verdicts[0] != verdicts[1] {
			t.Fatalf("the reader's verdict: %s; the payload's: %s", verdicts[0], verdicts[1])
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
	end := rec.NewEncoder()
	end.U8(itemEnd)
	return framed(append(append([][]byte{forgeHead(name, groupOID, src, base, live)}, items...), end.Seal())...)
}

// forgeHead seals a stream's head item.
func forgeHead(name string, groupOID objstore.OID, src, base objstore.Epoch, live []objstore.OID) []byte {
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
	return head.Seal()
}

// framed lays sealed items out as a stream: each behind its 4-byte length.
func framed(items ...[]byte) []byte {
	var out []byte
	for _, item := range items {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(item)))
		out = append(out, item...)
	}
	return out
}

// forgePages and forgeJournal are pagesItem and journalItem as forgeStream
// takes them: the sealed record, without the length in front of it.
func forgePages(oid objstore.OID, arg int64, data []byte) []byte {
	var e rec.Encoder
	pagesItem(&e, oid, arg, data)
	return e.Raw()[4:]
}

func forgeJournal(oid objstore.OID, ut uint16, capacity int64, run objstore.FrameRun) []byte {
	var e rec.Encoder
	journalItem(&e, oid, ut, capacity, run)
	return e.Raw()[4:]
}

func forgeRecord(oid objstore.OID, ut uint16, raw []byte) []byte {
	e := rec.NewEncoder()
	e.U8(itemRecord)
	e.U64(uint64(oid))
	e.U16(ut)
	e.Bytes(raw)
	return e.Seal()
}

// topOID is the highest OID a stream head can list; ensure keeps it from
// wrapping the allocator by itself, but the OIDs it would then allocate
// wrap.
const topOID = objstore.OID(1<<64 - 2)

// allocatorSound checks the next few OIDs the store allocates: none may be 0
// or name an object the store holds.
func allocatorSound(s *objstore.Store) error {
	for i := 0; i < 3; i++ {
		if oid := s.NewOID(); oid == 0 || s.Exists(oid) {
			return fmt.Errorf("allocation %d returned OID %d, which is 0 or live", i, oid)
		}
	}
	return nil
}

// TestRecvKeepsAllocatorBelowLiveOIDs: a stream may list OIDs anywhere in the
// space, but the receiver refuses any at or above 2^63 before it writes the
// item, so after every stream it accepts the allocator still hands out fresh
// OIDs, not 0 and not a live object's.
func TestRecvKeepsAllocatorBelowLiveOIDs(t *testing.T) {
	streams, err := fuzzSeedStreams()
	if err != nil {
		t.Fatal(err)
	}
	w := newWorld(t) // the full stream, then the two deltas over it
	for i, stream := range streams {
		if _, err := w.o.recvPayload(stream); err != nil {
			t.Fatalf("real stream %d refused: %v", i, err)
		}
		if err := allocatorSound(w.store); err != nil {
			t.Fatalf("real stream %d: %v", i, err)
		}
	}
	for _, oid := range []objstore.OID{1 << 63, topOID, 1<<64 - 1} {
		w := newWorld(t)
		stream := forgeStream("top", 100, []objstore.OID{100, oid}, forgeRecord(oid, 0, []byte("x")))
		if _, err := w.o.recvPayload(stream); !errors.Is(err, rec.ErrCorrupt) {
			t.Fatalf("record at OID %#x: err = %v, want rec.ErrCorrupt", uint64(oid), err)
		}
		if err := allocatorSound(w.store); err != nil {
			t.Fatalf("record at OID %#x: %v", uint64(oid), err)
		}
	}
}

// TestRecvRefusesUnlistedOIDs: a stream item may touch only an object the
// stream's head listed, and never the receiver's manifest.
// Each forged stream must be refused as corrupt before the item it carries
// has changed the object it aims at.
func TestRecvRefusesUnlistedOIDs(t *testing.T) {
	pagesHead := func(oid objstore.OID) []byte { return forgePages(oid, vm.PageSize, nil) }
	journal := func(oid objstore.OID) []byte {
		return forgeJournal(oid, UTMemObject, 1<<16, objstore.FrameRun{Gen: 1})
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
		{"record at the top of the OID space, listed", []objstore.OID{evil, topOID},
			func(v objstore.OID) []byte { return forgeRecord(v, 0, []byte("x")) },
			func(*world, *Group) objstore.OID { return topOID }},
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

// TestRecvRefusesMalformedStreams: a stream sealed item by item, so every
// sum holds, is still refused when its head is not a checkpoint stream's
// head or an item breaks the stream's own rules — each by the check meant
// for it — and the refusal leaves the receiver's store and manifest as they
// were.
func TestRecvRefusesMalformedStreams(t *testing.T) {
	const grp = objstore.OID(1 << 40)
	live := []objstore.OID{grp, grp + 1}
	head := func(magic uint32, version uint8, count uint32) []byte {
		e := rec.NewEncoder()
		e.U32(magic)
		e.U8(version)
		e.Str("bad")
		e.U64(uint64(grp))
		e.U64(1) // source epoch
		e.U64(0) // base epoch: a full stream
		e.U32(count)
		for _, oid := range live {
			e.U64(uint64(oid))
		}
		return e.Seal()
	}
	end := func() []byte {
		e := rec.NewEncoder()
		e.U8(itemEnd)
		return e.Seal()
	}
	cut := rec.NewEncoder() // a head that stops after the group's name
	cut.U32(streamMagic)
	cut.U8(streamVersion)
	cut.Str("bad")
	unknown := rec.NewEncoder()
	unknown.U8(itemEnd + 1)
	unknown.U64(uint64(grp + 1))
	short := bytes.Repeat([]byte{0x5a}, objstore.BlockSize-1)

	for _, tc := range []struct {
		name   string
		stream []byte
		want   string
	}{
		{"wrong magic", framed(head(streamMagic^1, streamVersion, 2), end()), "not a checkpoint stream"},
		{"wrong version", framed(head(streamMagic, streamVersion+1, 2), end()), "checkpoint stream version"},
		{"head cut before its live list", framed(cut.Seal(), end()), "truncated"},
		{"live list shorter than its count", framed(head(streamMagic, streamVersion, 3), end()), "truncated"},
		{"live list over the cap", framed(head(streamMagic, streamVersion, maxStreamOIDs+1), end()), "objects, cap"},
		{"page of less than a block", forgeStream("bad", grp, live,
			forgePages(grp+1, vm.PageSize, nil), forgePages(grp+1, 0, short)), "carries 4095 bytes"},
		{"unknown item kind", forgeStream("bad", grp, live, unknown.Seal()), "unknown stream item"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t)
			g := w.o.CreateGroup("local")
			g.Attach(w.k.NewProc("local"))
			if _, err := g.Checkpoint(CkptIncremental); err != nil {
				t.Fatal(err)
			}
			stats, epoch := w.store.Stats(), w.store.Epoch()
			manifest, err := w.store.GetRecord(ManifestOID)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.o.Recv(bytes.NewReader(tc.stream)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one saying %q", err, tc.want)
			}
			after, _ := w.store.GetRecord(ManifestOID)
			if !bytes.Equal(after, manifest) || w.store.Stats() != stats || w.store.Epoch() != epoch {
				t.Fatalf("the refused stream changed the receiver: manifest %d -> %d bytes, stats %+v -> %+v, epoch %d -> %d",
					len(manifest), len(after), stats, w.store.Stats(), epoch, w.store.Epoch())
			}
			for _, oid := range live {
				if w.store.Exists(oid) {
					t.Fatalf("the refused stream created object %d", oid)
				}
			}
			if w.o.recvState["bad"] != nil {
				t.Fatal("the refused stream left receive state behind")
			}
		})
	}
}

package objstore

// The batched read path against its serial reference. The store's own
// per-record dev.ReadAt loops are gone; the reference below is what they
// were, kept here so the tests can demand the two agree.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"aurora/internal/clock"
	"aurora/internal/device"
	"aurora/internal/trace"
)

// openImageSerial is the serial reference for openImage: one synchronous
// dev.ReadAt per index and per object record.
func openImageSerial(s *Store, addr, length int64) (*indexState, map[OID]*object, error) {
	buf := make([]byte, length)
	if _, err := s.dev.ReadAt(buf, addr); err != nil {
		return nil, nil, err
	}
	idx, err := decodeIndex(buf)
	if err != nil {
		return nil, nil, err
	}
	objects := make(map[OID]*object, len(idx.objects))
	for _, ent := range idx.objects {
		b := make([]byte, ent.len)
		if _, err := s.dev.ReadAt(b, ent.addr); err != nil {
			return nil, nil, err
		}
		o, err := decodeRecord(b)
		if err != nil {
			return nil, nil, err
		}
		o.recordAddr, o.recordLen = ent.addr, ent.len
		objects[o.oid] = o
	}
	return idx, objects, nil
}

// unopenedStore is a store over dev with its superblock read and nothing
// loaded: where a reference recovery in these tests starts.
func unopenedStore(dev BlockDev, clk clock.Clock, costs *clock.Costs) (*Store, superblock, error) {
	s := blankStore(dev, clk, costs, nil)
	sb, slot, err := s.readSuperblocks()
	if err != nil {
		return nil, sb, err
	}
	s.superSlot = 1 - slot
	s.walBase, s.walBlocks = sb.walBase, sb.walBlocks
	return s, sb, nil
}

// recoverSerial is Recover over openImageSerial.
func recoverSerial(dev BlockDev, clk clock.Clock, costs *clock.Costs) (*Store, error) {
	s, sb, err := unopenedStore(dev, clk, costs)
	if err != nil {
		return nil, err
	}
	idx, objects, err := openImageSerial(s, sb.indexAddr, sb.indexLen)
	if err != nil {
		return nil, err
	}
	s.nextOID, s.nextBlk = idx.nextOID, idx.nextBlk
	s.freelist, s.deadlist = idx.freelist, idx.deadlist
	s.retained = append(idx.retained, ckptInfo{epoch: idx.epoch, indexAddr: sb.indexAddr, indexLen: sb.indexLen})
	s.objects = objects
	s.epoch = sb.epoch
	_, err = s.walRecover()
	return s, err
}

// tableDump renders an object table: every record re-encoded, with where it
// was read from.
func tableDump(objects map[OID]*object) string {
	var b strings.Builder
	for _, oid := range sortedOIDKeys(objects) {
		o := objects[oid]
		fmt.Fprintf(&b, "%d @%#x+%d dirty=%v birth=%d %x\n", oid, o.recordAddr, o.recordLen, o.dirty, o.birth, encodeRecord(o))
	}
	return b.String()
}

// stateDump renders everything recovery rebuilds: allocator, history, WAL
// position and the object table.
func stateDump(s *Store) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("epoch=%d nextOID=%d nextBlk=%d slot=%d wal=%d/%d/%d\nfree=%v\ndead=%v\nretained=%v\nreleasing=%v\n%s",
		s.epoch, s.nextOID, s.nextBlk, s.superSlot, s.walHead, s.walSeq, s.walReplayed,
		s.freelist, s.deadlist, s.retained, s.releasing, tableDump(s.objects))
}

// cloneStripe copies a stripe's media onto a fresh clock.
func cloneStripe(t *testing.T, dev *device.Stripe) (*device.Stripe, *clock.Virtual) {
	t.Helper()
	var img bytes.Buffer
	if err := dev.Save(&img); err != nil {
		t.Fatal(err)
	}
	clk := clock.NewVirtual()
	out, err := device.LoadStripe(clk, clock.DefaultCosts(), &img)
	if err != nil {
		t.Fatal(err)
	}
	return out, clk
}

func imageHash(t *testing.T, dev *device.Stripe) [32]byte {
	t.Helper()
	h := sha256.New()
	if err := dev.Save(h); err != nil {
		t.Fatal(err)
	}
	return [32]byte(h.Sum(nil))
}

// buildMixedImage drives a seeded mix of inline records, paged objects
// spanning chunk boundaries, spilled records and journals through several
// retained checkpoints and one history release, and leaves WAL frames
// outstanding on top of the last one.
func buildMixedImage(t *testing.T, seed int64) (*Store, *device.Stripe) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s, dev, _ := newStore(t)
	page := make([]byte, BlockSize)
	var paged, journals []OID
	mutate := func() {
		for i, n := 0, 4+rng.Intn(12); i < n; i++ {
			switch rng.Intn(5) {
			case 0: // inline record
				b := make([]byte, rng.Intn(2000))
				rng.Read(b)
				if err := s.PutRecord(s.NewOID(), 3, b); err != nil {
					t.Fatal(err)
				}
			case 1: // record past InlineMax spills to pages
				b := make([]byte, InlineMax+1+rng.Intn(3*BlockSize))
				rng.Read(b)
				if err := s.PutRecord(s.NewOID(), 4, b); err != nil {
					t.Fatal(err)
				}
			case 2: // new paged object, pages on both sides of a chunk boundary
				oid := s.NewOID()
				s.Ensure(oid, 2)
				paged = append(paged, oid)
				fallthrough
			case 3: // overwrite pages of an existing paged object
				if len(paged) == 0 {
					continue
				}
				oid := paged[rng.Intn(len(paged))]
				for j, m := 0, 1+rng.Intn(6); j < m; j++ {
					rng.Read(page[:64])
					if err := s.WritePage(oid, int64(rng.Intn(2*ChunkFanout)), page); err != nil {
						t.Fatal(err)
					}
				}
			case 4: // journal appends
				if len(journals) == 0 || rng.Intn(3) == 0 {
					oid := s.NewOID()
					if _, err := s.CreateJournal(oid, 9, 256<<10); err != nil {
						t.Fatal(err)
					}
					journals = append(journals, oid)
				}
				j, err := s.OpenJournal(journals[rng.Intn(len(journals))])
				if err != nil {
					t.Fatal(err)
				}
				b := make([]byte, 1+rng.Intn(6000))
				rng.Read(b)
				if _, err := j.Append(b); err != nil && !errors.Is(err, ErrJournalFull) {
					t.Fatal(err)
				}
			}
		}
	}
	for epoch, n := 0, 3+rng.Intn(4); epoch < n; epoch++ {
		mutate()
		if _, err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if epoch == 2 {
			s.ReleaseCheckpointsBefore(s.Epoch() - 1)
		}
	}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		mutate()
		if _, err := s.WALCommit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WaitWALDurable(s.WALSeq()); err != nil {
		t.Fatal(err)
	}
	return s, dev
}

// TestOpenImageMatchesSerialReference: on seeded images with paged objects,
// journals, outstanding WAL frames and retained epochs, the batched open
// rebuilds exactly what the serial loop did — object table, allocator state,
// every retained view — and the next checkpoint of either store leaves a
// byte-identical device image.
func TestOpenImageMatchesSerialReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		s, dev := buildMixedImage(t, seed)
		if s.WALSeq() == 0 || len(s.RetainedCheckpoints()) < 2 {
			t.Fatalf("seed %d: image has no outstanding WAL frames or no history", seed)
		}
		devA, clkA := cloneStripe(t, dev)
		devB, clkB := cloneStripe(t, dev)
		got, err := Recover(devA, clkA, clock.DefaultCosts())
		if err != nil {
			t.Fatalf("seed %d: Recover: %v", seed, err)
		}
		want, err := recoverSerial(devB, clkB, clock.DefaultCosts())
		if err != nil {
			t.Fatalf("seed %d: serial reference: %v", seed, err)
		}
		if g, w := stateDump(got), stateDump(want); g != w {
			t.Fatalf("seed %d: recovered state differs from the serial reference\n--- batched\n%s\n--- serial\n%s", seed, g, w)
		}
		if clkA.Now() >= clkB.Now() {
			t.Errorf("seed %d: batched recovery took %v, serial %v", seed, clkA.Now(), clkB.Now())
		}
		for _, c := range got.retained {
			v, err := got.RestoreView(c.epoch)
			if err != nil {
				t.Fatalf("seed %d: view of epoch %d: %v", seed, c.epoch, err)
			}
			_, ref, err := openImageSerial(want, c.indexAddr, c.indexLen)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := tableDump(v.objects), tableDump(ref); g != w {
				t.Fatalf("seed %d: view of epoch %d differs from the serial reference\n--- batched\n%s\n--- serial\n%s", seed, c.epoch, g, w)
			}
		}
		for _, st := range []*Store{got, want} {
			if _, err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if imageHash(t, devA) != imageHash(t, devB) {
			t.Fatalf("seed %d: images diverge after the next checkpoint", seed)
		}
	}
}

// TestOpenImageRejectsDamagedRecord rots, then tears, one record at every
// index of a 64-object image: each open fails with ErrCorrupt and hands back
// no table at all, for recovery and for a history view alike.
func TestOpenImageRejectsDamagedRecord(t *testing.T) {
	s, dev, clk := newStore(t)
	for i := 0; i < 64; i++ {
		if err := s.PutRecord(s.NewOID(), 1, bytes.Repeat([]byte{byte(i)}, 40+i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitDurable(s.Epoch()); err != nil {
		t.Fatal(err)
	}
	info := s.retained[len(s.retained)-1]
	idx, err := s.fetchIndex(info.indexAddr, info.indexLen)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.objects) != 64 {
		t.Fatalf("index lists %d objects, want 64", len(idx.objects))
	}
	for i, ent := range idx.objects {
		good := make([]byte, ent.len)
		dev.PeekAt(good, ent.addr)
		rot := append([]byte(nil), good...)
		rot[int(ent.len)/2] ^= 0x40
		torn := append([]byte(nil), good...)
		for k := len(torn) / 2; k < len(torn); k++ {
			torn[k] = 0
		}
		for name, bad := range map[string][]byte{"rot": rot, "tear": torn} {
			dev.PokeAt(bad, ent.addr)
			if s2, err := Recover(dev, clk, clock.DefaultCosts()); !errors.Is(err, ErrCorrupt) || s2 != nil {
				t.Fatalf("record %d %s: Recover = %v, %v; want nil, ErrCorrupt", i, name, s2, err)
			}
			if v, err := s.RestoreView(info.epoch); !errors.Is(err, ErrCorrupt) || v != nil {
				t.Fatalf("record %d %s: RestoreView = %v, %v; want nil, ErrCorrupt", i, name, v, err)
			}
		}
		dev.PokeAt(good, ent.addr)
	}
	if _, err := Recover(dev, clk, clock.DefaultCosts()); err != nil {
		t.Fatalf("repaired image does not recover: %v", err)
	}
}

// TestRecoverAtQueueDepth bounds the records phase of recovering a
// 1 000-object image by what the device must do — the index transfer, every
// record's queue occupancy — plus four read latencies (one per batch, and
// slack). One wait per record would cost a thousand latencies and fails
// here by name.
func TestRecoverAtQueueDepth(t *testing.T) {
	const objects = 1000
	s, dev, clk := newStore(t)
	for i := 0; i < objects; i++ {
		if err := s.PutRecord(s.NewOID(), 1, bytes.Repeat([]byte{byte(i)}, 96)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitDurable(s.Epoch()); err != nil {
		t.Fatal(err)
	}
	costs := clock.DefaultCosts()
	tr := trace.New(clk)
	s, err := RecoverTraced(dev, clk, costs, tr)
	if err != nil {
		t.Fatal(err)
	}
	info := s.retained[len(s.retained)-1]
	idx, err := s.fetchIndex(info.indexAddr, info.indexLen)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.objects) != objects {
		t.Fatalf("index lists %d objects, want %d", len(idx.objects), objects)
	}
	bound := clock.XferTime(0, costs.DevReadBps, info.indexLen) + 4*costs.DevReadLatency
	for _, ent := range idx.objects {
		bound += clock.XferTime(0, costs.DevReadBps, ent.len)
	}
	var got time.Duration
	for _, e := range tr.Events() {
		if e.Kind == trace.KindSpan && (e.Name == "index" || e.Name == "records") {
			got += e.Dur
		}
	}
	if got == 0 || got > bound {
		t.Fatalf("index+records of a %d-object image took %v, want at most %v (index transfer + record occupancy + 4 read latencies): a per-record wait is back", objects, got, bound)
	}
}

// TestRecoverSpanTiling: recovery lands on the timeline as one objstore
// "recover" span whose children super, index, records and wal follow one
// another without gap or overlap and sum to it exactly.
func TestRecoverSpanTiling(t *testing.T) {
	_, dev := buildMixedImage(t, 5)
	devA, clk := cloneStripe(t, dev)
	clk.Advance(3 * time.Millisecond)
	tr := trace.New(clk)
	devA.SetTracer(tr)
	t0 := clk.Now()
	if _, err := RecoverTraced(devA, clk, clock.DefaultCosts(), tr); err != nil {
		t.Fatal(err)
	}
	var root trace.Event
	var kids []trace.Event
	for _, e := range tr.Events() {
		if e.Kind != trace.KindSpan || e.Track != trace.TrackObjstore {
			continue
		}
		if e.Name == "recover" {
			root = e
		} else {
			kids = append(kids, e)
		}
	}
	if root.ID == 0 || root.Start != t0 || root.Start+root.Dur != clk.Now() {
		t.Fatalf("recover span %+v does not cover recovery [%v,%v]", root, t0, clk.Now())
	}
	at := root.Start
	for i, name := range []string{"super", "index", "records", "wal"} {
		if i >= len(kids) || kids[i].Name != name || kids[i].Parent != root.ID {
			t.Fatalf("child %d = %+v, want %q under span %d", i, kids, name, root.ID)
		}
		if kids[i].Start != at || kids[i].Dur <= 0 {
			t.Fatalf("%s starts at %v for %v, want it to start at %v", name, kids[i].Start, kids[i].Dur, at)
		}
		at += kids[i].Dur
	}
	if len(kids) != 4 || at != root.Start+root.Dur {
		t.Fatalf("children end at %v, recover at %v (%d children)", at, root.Start+root.Dur, len(kids))
	}
}

// TestEachPageOfMatchesReadPage: the batched page stream delivers byte for
// byte what a ReadPage loop does, holes and pages past the end included, in
// the order asked, for live and inline objects — in less virtual time.
func TestEachPageOfMatchesReadPage(t *testing.T) {
	s, _, clk := newStore(t)
	rng := rand.New(rand.NewSource(7))
	paged := s.NewOID()
	s.Ensure(paged, 2)
	page := make([]byte, BlockSize)
	for _, pg := range []int64{0, 1, 5, ChunkFanout - 1, ChunkFanout, ChunkFanout + 7, 3 * ChunkFanout} {
		rng.Read(page)
		if err := s.WritePage(paged, pg, page); err != nil {
			t.Fatal(err)
		}
	}
	inline := s.NewOID()
	small := make([]byte, BlockSize+100)
	rng.Read(small)
	if err := s.PutRecord(inline, 1, small); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitDurable(s.Epoch()); err != nil {
		t.Fatal(err)
	}
	ask := []int64{3 * ChunkFanout, 2, 0, ChunkFanout, 2*ChunkFanout + 1, 5, 1, ChunkFanout - 1, 9 * ChunkFanout, ChunkFanout + 7}
	for _, oid := range []OID{paged, inline} {
		var want [][]byte
		t0 := clk.Now()
		for _, pg := range ask {
			buf := make([]byte, BlockSize)
			if _, err := s.ReadPage(oid, pg, buf); err != nil {
				t.Fatal(err)
			}
			want = append(want, buf)
		}
		serial := clk.Now() - t0
		t0 = clk.Now()
		i := 0
		err := s.EachPageOf(oid, ask, func(pg int64, data []byte) error {
			if pg != ask[i] || !bytes.Equal(data, want[i]) {
				t.Errorf("oid %d: delivery %d is page %d, want page %d with ReadPage's bytes", oid, i, pg, ask[i])
			}
			i++
			return nil
		})
		if err != nil || i != len(ask) {
			t.Fatalf("oid %d: EachPageOf delivered %d of %d pages, err %v", oid, i, len(ask), err)
		}
		if batched := clk.Now() - t0; oid == paged && batched >= serial {
			t.Errorf("EachPageOf took %v, the ReadPage loop %v", batched, serial)
		}
	}
	// The bulk walk is the same stream over the stored pages.
	var bulk, of [][]byte
	var stored []int64
	if _, err := s.EachPageBulk(paged, func(pg int64, data []byte) error {
		stored = append(stored, pg)
		bulk = append(bulk, append([]byte(nil), data...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.EachPageOf(paged, stored, func(_ int64, data []byte) error {
		of = append(of, append([]byte(nil), data...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(stored) != 7 || fmt.Sprint(bulk) != fmt.Sprint(of) {
		t.Fatalf("EachPageBulk visited %v; EachPageOf over the same pages differs", stored)
	}
}

// TestJournalScanWindows: frames that straddle read-ahead windows, and one
// larger than a window, scan to the same entries the appends produced, with
// far fewer device reads than two per frame.
func TestJournalScanWindows(t *testing.T) {
	s, j, dev, clk := newJournal(t, 1<<20)
	rng := rand.New(rand.NewSource(3))
	var want [][]byte
	for _, n := range []int{100, 5000, journalReadAhead + 900, 4096, 60000, 1, 30000} {
		b := make([]byte, n)
		rng.Read(b)
		want = append(want, b)
		if _, err := j.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s2 := reopen(t, dev, clk)
	j2, err := s2.OpenJournal(j.OID())
	if err != nil {
		t.Fatal(err)
	}
	r0 := dev.Stats().Reads
	entries, err := j2.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Fatalf("scan found %d entries, want %d", len(entries), len(want))
	}
	for i, e := range entries {
		if e.Seq != uint64(i+1) || !bytes.Equal(e.Payload, want[i]) || cap(e.Payload) != len(e.Payload) {
			t.Fatalf("entry %d: seq %d, %d bytes (cap %d), want seq %d, %d bytes", i, e.Seq, len(e.Payload), cap(e.Payload), i+1, len(want[i]))
		}
	}
	if j2.Used() != j.Used() {
		t.Fatalf("scan tail %d, append tail %d", j2.Used(), j.Used())
	}
	// Stripe reads count member commands; a window is at most two.
	if got := dev.Stats().Reads - r0; got > 12 {
		t.Errorf("scan of %d frames issued %d member reads", len(want), got)
	}
}

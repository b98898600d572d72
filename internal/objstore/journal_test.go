package objstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"
	"time"

	"aurora/internal/clock"
	"aurora/internal/device"
)

func newJournal(t *testing.T, capacity int64) (*Store, *Journal, *device.Stripe, *clock.Virtual) {
	t.Helper()
	s, dev, clk := newStore(t)
	oid := s.NewOID()
	j, err := s.CreateJournal(oid, 9, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return s, j, dev, clk
}

func TestJournalAppendEntries(t *testing.T) {
	_, j, _, _ := newJournal(t, 1<<20)
	var want [][]byte
	for i := 0; i < 10; i++ {
		p := []byte(fmt.Sprintf("record %d", i))
		want = append(want, p)
		seq, err := j.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	got, err := j.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("entries = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Payload, want[i]) {
			t.Fatalf("entry %d = %q, want %q", i, got[i].Payload, want[i])
		}
	}
}

// TestRecoverRefusesOlderFormat: a journal frame of the layout before frames
// were log frames (magic | gen | seq | len | crc | payload, the CRC taken with
// its own field zeroed) is no frame to the scan — its generation's low word
// reads as a length shorter than a frame — so an image of that format would
// come back with journals silently empty. Its index magic refuses it instead:
// Recover fails as ErrCorrupt.
func TestRecoverRefusesOlderFormat(t *testing.T) {
	s, j, dev, clk := newJournal(t, 4*BlockSize)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	old := binary.LittleEndian.AppendUint32(nil, magicFrame)
	old = binary.LittleEndian.AppendUint64(old, 1) // gen
	old = binary.LittleEndian.AppendUint64(old, 1) // seq
	old = binary.LittleEndian.AppendUint32(old, 5)
	old = binary.LittleEndian.AppendUint32(old, 0)
	old = append(old, "hello"...)
	binary.LittleEndian.PutUint32(old[24:], crc32.ChecksumIEEE(old))
	dev.PokeAt(old, j.o.journal.extentAddr)
	if got, err := j.Entries(); err != nil || len(got) != 0 {
		t.Fatalf("an older-format frame scans to %d entries (%v), want none", len(got), err)
	}
	_, err := s.Checkpoint()
	must(err)
	must(s.WaitDurable(s.Epoch()))
	_, sb, err := unopenedStore(dev, clk, clock.DefaultCosts())
	must(err)
	idx := make([]byte, sb.indexLen)
	_, err = dev.ReadAt(idx, sb.indexAddr)
	must(err)
	// "ARIM", the index magic of that format, and "ARIN", that of the format
	// whose flight ring was an object.
	for _, magic := range []uint32{0x4152494D, 0x4152494E} {
		binary.LittleEndian.PutUint32(idx, magic)
		binary.LittleEndian.PutUint32(idx[len(idx)-4:], crc32.ChecksumIEEE(idx[:len(idx)-4]))
		dev.PokeAt(idx, sb.indexAddr)
		if _, err := Recover(dev, clk, clock.DefaultCosts(), nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Recover of an older-format image (index magic %#x) = %v, want ErrCorrupt", magic, err)
		}
	}
}

func TestJournalAppendLatencyMatchesTable5(t *testing.T) {
	_, j, _, clk := newJournal(t, 16<<20)
	before := clk.Now()
	if _, err := j.Append(make([]byte, 4096-frameOverhead)); err != nil {
		t.Fatal(err)
	}
	got := clk.Now() - before
	// Paper Table 5: 4 KiB journaled write in 28 us.
	if got < 25*time.Microsecond || got > 31*time.Microsecond {
		t.Fatalf("4 KiB journal append charged %v, want ~28us", got)
	}
}

func TestJournalSurvivesCrashWithoutCheckpoint(t *testing.T) {
	s, j, dev, clk := newJournal(t, 1<<20)
	oid := j.OID()
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Appends after the checkpoint are synchronous: they must survive a
	// crash even though no further checkpoint commits. This is the whole
	// point of the journal API.
	j.Append([]byte("wal-1"))
	j.Append([]byte("wal-2"))

	s2 := reopen(t, dev, clk)
	j2, err := s2.OpenJournal(oid)
	if err != nil {
		t.Fatal(err)
	}
	got, err := j2.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || string(got[0].Payload) != "wal-1" || string(got[1].Payload) != "wal-2" {
		t.Fatalf("recovered entries = %v", got)
	}
}

func TestJournalTruncateCommitted(t *testing.T) {
	s, j, dev, clk := newJournal(t, 1<<20)
	oid := j.OID()
	j.Append([]byte("old-1"))
	j.Append([]byte("old-2"))
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	j.Truncate()
	if _, err := s.Checkpoint(); err != nil { // commit the truncation
		t.Fatal(err)
	}
	j.Append([]byte("new-1"))

	s2 := reopen(t, dev, clk)
	j2, err := s2.OpenJournal(oid)
	if err != nil {
		t.Fatal(err)
	}
	got, err := j2.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0].Payload) != "new-1" {
		t.Fatalf("after committed truncate, entries = %v (want only new-1)", got)
	}
}

func TestJournalUncommittedTruncateReplaysOld(t *testing.T) {
	// A truncate that never reaches a checkpoint must not lose the frames
	// it covered: recovery is at-least-once.
	s, j, dev, clk := newJournal(t, 1<<20)
	oid := j.OID()
	j.Append([]byte("covered"))
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	j.Truncate() // not committed
	s2 := reopen(t, dev, clk)
	j2, err := s2.OpenJournal(oid)
	if err != nil {
		t.Fatal(err)
	}
	got, err := j2.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0].Payload) != "covered" {
		t.Fatalf("entries = %v, want the covered frame back", got)
	}
}

func TestJournalNewGenerationFramesRecoverable(t *testing.T) {
	// Crash after truncate + new appends, before the truncating
	// checkpoint: the new-generation frames must replay.
	s, j, dev, clk := newJournal(t, 1<<20)
	oid := j.OID()
	j.Append([]byte("gen1-a"))
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	j.Truncate()
	j.Append([]byte("gen2-a"))
	j.Append([]byte("gen2-b"))

	s2 := reopen(t, dev, clk)
	j2, err := s2.OpenJournal(oid)
	if err != nil {
		t.Fatal(err)
	}
	got, err := j2.Entries()
	if err != nil {
		t.Fatal(err)
	}
	var payloads []string
	for _, e := range got {
		payloads = append(payloads, string(e.Payload))
	}
	// gen2 frames overwrote gen1's prefix; both remaining must replay.
	if len(payloads) != 2 || payloads[0] != "gen2-a" || payloads[1] != "gen2-b" {
		t.Fatalf("entries = %v", payloads)
	}
}

func TestJournalFull(t *testing.T) {
	_, j, _, _ := newJournal(t, BlockSize)
	big := make([]byte, BlockSize/2)
	if _, err := j.Append(big); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(big); !errors.Is(err, ErrJournalFull) {
		t.Fatalf("overfull append: %v", err)
	}
	// Truncate frees the space.
	j.Truncate()
	if _, err := j.Append(big); err != nil {
		t.Fatal(err)
	}
}

func TestJournalUsedAndCapacity(t *testing.T) {
	_, j, _, _ := newJournal(t, 10*BlockSize)
	if j.Capacity() != 10*BlockSize {
		t.Fatalf("capacity = %d", j.Capacity())
	}
	if j.Used() != 0 {
		t.Fatalf("fresh used = %d", j.Used())
	}
	j.Append(make([]byte, 100))
	if got := j.Used(); got != 100+frameOverhead {
		t.Fatalf("used = %d, want %d", got, 100+frameOverhead)
	}
}

func TestJournalDeleteReclaimsExtent(t *testing.T) {
	s, j, _, _ := newJournal(t, 4*BlockSize)
	oid, extent := j.OID(), j.o.journal.extentAddr
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(oid); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if freed := s.ReleaseCheckpointsBefore(s.Epoch()); freed < 4 {
		t.Fatalf("release freed %d blocks, want >= 4 (the extent)", freed)
	}
	// Released blocks stage until the next superblock is durable (a crash
	// before then must find them intact for the still-referenced history).
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitDurable(s.Epoch()); err != nil {
		t.Fatal(err)
	}
	for b := int64(0); b < 4; b++ {
		if a := extent + b*BlockSize; !allocatable(s, a) {
			t.Fatalf("extent block %#x is not free after the promoting commit", a)
		}
	}
}

// TestWriteFramesMirrorsAppend ships a journal to a second store run by run,
// as replication does: ReadFrames from the last mark, WriteFrames at the
// run's offset. The mirror holds the source's entries, seqs included, through
// frames longer than a run and a read-ahead window, a repeated run, a crash of
// the mirror, and a truncation, which moves the mirror to a fresh extent.
func TestWriteFramesMirrorsAppend(t *testing.T) {
	_, j, _, _ := newJournal(t, 1<<20)
	dst, dev, clk := newStore(t)
	oid := j.OID()
	const limit = 8 << 10
	var mark JournalMark
	ship := func(twice bool) {
		t.Helper()
		runs, to, err := j.ReadFrames(mark, limit)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range runs {
			if n := len(run.Frames); n > limit && n != int(binary.LittleEndian.Uint32(run.Frames[4:])) {
				t.Fatalf("a run of %d bytes over a limit of %d holds more than one frame", n, limit)
			}
			if err := dst.WriteFrames(oid, 9, j.Capacity(), run); err != nil {
				t.Fatal(err)
			}
			if twice {
				if err := dst.WriteFrames(oid, 9, j.Capacity(), run); err != nil {
					t.Fatalf("the same run again: %v", err)
				}
			}
		}
		mark = to
	}
	same := func(dst *Store, when string) {
		t.Helper()
		want, err := j.Entries()
		if err != nil {
			t.Fatal(err)
		}
		dj, err := dst.OpenJournal(oid)
		if err != nil {
			t.Fatal(err)
		}
		// The tail as the write left it, before a scan could rebuild it.
		if js := dj.o.journal; js.tail != j.Used() || js.generation != mark.Gen || js.lastSeq != mark.Seq {
			t.Fatalf("%s: mirror's tail at %d, generation %d, seq %d; source's %+v",
				when, js.tail, js.generation, js.lastSeq, mark)
		}
		got, err := dj.Entries()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: mirror holds %d entries, source %d", when, len(got), len(want))
		}
		for i := range want {
			if got[i].Seq != want[i].Seq || !bytes.Equal(got[i].Payload, want[i].Payload) {
				t.Fatalf("%s: entry %d is seq %d (%d bytes), source seq %d (%d bytes)",
					when, i, got[i].Seq, len(got[i].Payload), want[i].Seq, len(want[i].Payload))
			}
		}
	}
	appendAll := func(sizes ...int) {
		t.Helper()
		for _, n := range sizes {
			if _, err := j.Append(bytes.Repeat([]byte{byte(n)}, n)); err != nil {
				t.Fatal(err)
			}
		}
	}

	appendAll(10, 3000, 7000)
	ship(false)
	same(dst, "first ship")
	appendAll(journalReadAhead+900, 1, 20000)
	ship(true)
	same(dst, "a frame longer than a run, every run written twice")

	if _, err := dst.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	dst = reopen(t, dev, clk)
	same(dst, "after the mirror's crash")

	dj, err := dst.OpenJournal(oid)
	if err != nil {
		t.Fatal(err)
	}
	extent := dj.o.journal.extentAddr
	j.Truncate()
	appendAll(50)
	ship(false)
	same(dst, "after a truncation")
	if dj, err = dst.OpenJournal(oid); err != nil {
		t.Fatal(err)
	}
	if dj.o.journal.extentAddr == extent {
		t.Fatal("a new generation landed over the extent the last commit holds")
	}
	if rep := dst.Fsck(); !rep.OK() {
		t.Fatalf("mirror fsck: %v", rep.Problems)
	}
}

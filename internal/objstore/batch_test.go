package objstore

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"aurora/internal/clock"
	"aurora/internal/device"
)

func pageOf(oid OID, pg int64) []byte {
	p := make([]byte, BlockSize)
	for i := range p {
		p[i] = byte(int64(oid)*31 + pg + int64(i))
	}
	return p
}

// TestWritePagesMatchesWritePage: a batch must be indistinguishable from
// the equivalent WritePage sequence, including across a crash.
func TestWritePagesMatchesWritePage(t *testing.T) {
	s, dev, clk := newStore(t)
	a, b := s.NewOID(), s.NewOID()
	s.Ensure(a, 1)
	s.Ensure(b, 1)

	var writes []PageWrite
	for pg := int64(0); pg < 300; pg++ {
		writes = append(writes, PageWrite{Pg: pg * 3, Data: pageOf(a, pg*3)})
	}
	n, err := s.WritePages(a, writes)
	if err != nil {
		t.Fatal(err)
	}
	if n != 300*BlockSize {
		t.Fatalf("submitted %d bytes, want %d", n, 300*BlockSize)
	}
	for pg := int64(0); pg < 300; pg++ {
		if err := s.WritePage(b, pg*3, pageOf(a, pg*3)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	s2 := reopen(t, dev, clk)
	sa, _ := s2.Size(a)
	sb, _ := s2.Size(b)
	if sa != sb {
		t.Fatalf("sizes diverge: batch %d serial %d", sa, sb)
	}
	ba := make([]byte, BlockSize)
	bb := make([]byte, BlockSize)
	for pg := int64(0); pg < 900; pg++ {
		oka, err := s2.ReadPage(a, pg, ba)
		if err != nil {
			t.Fatal(err)
		}
		okb, err := s2.ReadPage(b, pg, bb)
		if err != nil {
			t.Fatal(err)
		}
		if oka != okb || !bytes.Equal(ba, bb) {
			t.Fatalf("page %d diverges (present %v/%v)", pg, oka, okb)
		}
	}
}

// TestWritePagesConcurrent hammers the batch path from many goroutines —
// one per destination object, as the flush pipeline does — racing readers
// of already-committed objects. Run under -race.
func TestWritePagesConcurrent(t *testing.T) {
	s, dev, clk := newStore(t)
	const objs = 8
	const pages = 400

	oids := make([]OID, objs)
	for i := range oids {
		oids[i] = s.NewOID()
		s.Ensure(oids[i], 1)
	}
	// Seed object 0 with committed content for the readers.
	for pg := int64(0); pg < pages; pg++ {
		if err := s.WritePage(oids[0], pg, pageOf(oids[0], pg)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, objs+2)
	for i := 1; i < objs; i++ {
		wg.Add(1)
		go func(oid OID) {
			defer wg.Done()
			var writes []PageWrite
			for pg := int64(0); pg < pages; pg++ {
				writes = append(writes, PageWrite{Pg: pg, Data: pageOf(oid, pg)})
			}
			if _, err := s.WritePages(oid, writes); err != nil {
				errs <- err
			}
		}(oids[i])
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, BlockSize)
			for i := 0; i < 200; i++ {
				pg := int64(i % pages)
				ok, err := s.ReadPage(oids[0], pg, buf)
				if err != nil {
					errs <- err
					return
				}
				if !ok || !bytes.Equal(buf, pageOf(oids[0], pg)) {
					errs <- fmt.Errorf("reader saw torn page %d", pg)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s2 := reopen(t, dev, clk)
	buf := make([]byte, BlockSize)
	for _, oid := range oids {
		for pg := int64(0); pg < pages; pg++ {
			ok, err := s2.ReadPage(oid, pg, buf)
			if err != nil {
				t.Fatal(err)
			}
			if !ok || !bytes.Equal(buf, pageOf(oid, pg)) {
				t.Fatalf("oid %d page %d wrong after crash", oid, pg)
			}
		}
	}
	if rep := s2.Fsck(); !rep.OK() {
		t.Fatalf("fsck after concurrent batches: %+v", rep)
	}
}

// TestWritePagesValidation: a bad batch fails whole and leaks no blocks.
func TestWritePagesValidation(t *testing.T) {
	s, _, _ := newStore(t)
	oid := s.NewOID()
	s.Ensure(oid, 1)
	free := s.FreeBlocks()
	if _, err := s.WritePages(oid, []PageWrite{{Pg: 0, Data: make([]byte, 17)}}); err == nil {
		t.Fatal("short page accepted")
	}
	if got := s.FreeBlocks(); got != free {
		t.Fatalf("failed batch leaked blocks: %d -> %d", free, got)
	}
	if _, err := s.WritePages(0xdeadbeef, []PageWrite{{Pg: 0, Data: make([]byte, BlockSize)}}); err == nil {
		t.Fatal("unknown oid accepted")
	}
}

// failNextSubmit fails one Submit when armed, like a transient write error.
type failNextSubmit struct {
	BlockDev
	armed bool
}

func (f *failNextSubmit) Submit(bufs [][]byte, off int64, after time.Duration) (time.Duration, error) {
	if f.armed {
		f.armed = false
		return 0, errors.New("transient write error")
	}
	return f.BlockDev.Submit(bufs, off, after)
}

// TestFailedWritePagesLeavesNoChunkRoot: a batch that fails in its transfer
// phase has reserved — created — the chunks it would have published into. They
// hold nothing and were never written, so the object's next record must not
// name them: a root at address 0 reads the superblock as a chunk and the image
// fails to open ("chunk checksum mismatch").
func TestFailedWritePagesLeavesNoChunkRoot(t *testing.T) {
	clk := clock.NewVirtual()
	fd := &failNextSubmit{BlockDev: device.New(clk, clock.DefaultCosts(), 64<<20)}
	s, err := Format(fd, clk, clock.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	oid := s.NewOID()
	s.Ensure(oid, 9)
	page := bytes.Repeat([]byte{0xAB}, BlockSize)
	// Pages in two chunks; the second chunk is only ever touched by the
	// failing batch.
	if _, err := s.WritePages(oid, []PageWrite{{Pg: 1, Data: page}}); err != nil {
		t.Fatal(err)
	}
	fd.armed = true
	if _, err := s.WritePages(oid, []PageWrite{{Pg: 2, Data: page}, {Pg: ChunkFanout + 5, Data: page}}); err == nil {
		t.Fatal("WritePages over a failing device succeeded")
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if rep := s.Fsck(); !rep.OK() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
	s2, err := Recover(fd, clk, clock.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, BlockSize)
	for _, pg := range []int64{1, 2, ChunkFanout + 5} {
		ok, err := s2.ReadPage(oid, pg, buf)
		if err != nil {
			t.Fatalf("page %d after recovery: %v", pg, err)
		}
		if want := pg == 1; ok != want || (ok && !bytes.Equal(buf, page)) {
			t.Fatalf("page %d present=%v, want %v", pg, ok, want)
		}
	}
	if rep := s2.Fsck(); !rep.OK() {
		t.Fatalf("fsck after recovery: %v", rep.Problems)
	}
}

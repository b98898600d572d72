package objstore

import (
	"testing"

	"aurora/internal/clock"
	"aurora/internal/device"
)

// Real-performance benchmarks of the store's hot paths.

func benchStore(b *testing.B) *Store {
	b.Helper()
	clk := clock.NewVirtual()
	costs := clock.DefaultCosts()
	dev := device.NewStripe(clk, costs, 4, 64<<10, 4<<30)
	s, err := Format(dev, clk, costs)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkWritePage(b *testing.B) {
	s := benchStore(b)
	oid := s.NewOID()
	s.Ensure(oid, 2)
	page := make([]byte, BlockSize)
	b.SetBytes(BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.WritePage(oid, int64(i%4096), page); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPageWriteAllocatesNothing guards the store's write scratch: a
// WritePage, a 16-page WritePages and a journal append reuse what the store
// holds and allocate nothing.
func TestPageWriteAllocatesNothing(t *testing.T) {
	s, _, _ := newStore(t)
	oid := s.NewOID()
	s.Ensure(oid, 2)
	page := make([]byte, BlockSize)
	writes := make([]PageWrite, 16)
	for i := range writes {
		writes[i] = PageWrite{Pg: int64(i), Data: page}
	}
	var pg int64
	if n := testing.AllocsPerRun(100, func() {
		if err := s.WritePage(oid, pg%64, page); err != nil {
			t.Fatal(err)
		}
		pg++
	}); n != 0 {
		t.Errorf("WritePage allocated %.0f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := s.WritePages(oid, writes); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a 16-page WritePages allocated %.0f times per call, want 0", n)
	}
	j, err := s.CreateJournal(s.NewOID(), 9, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := j.Append(page[:100]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Journal.Append allocated %.0f times per call, want 0", n)
	}
}

func BenchmarkCheckpoint64Dirty(b *testing.B) {
	s := benchStore(b)
	oid := s.NewOID()
	s.Ensure(oid, 2)
	page := make([]byte, BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for pg := int64(0); pg < 64; pg++ {
			s.WritePage(oid, pg, page)
		}
		if _, err := s.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		if i%32 == 31 {
			b.StopTimer()
			s.ReleaseCheckpointsBefore(s.Epoch())
			b.StartTimer()
		}
	}
}

func BenchmarkJournalAppend(b *testing.B) {
	s := benchStore(b)
	j, err := s.CreateJournal(s.NewOID(), 9, 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 4096-frameOverhead)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := j.Append(payload); err != nil {
			b.StopTimer()
			j.Truncate()
			b.StartTimer()
		}
	}
}

// BenchmarkRecover1kObjects measures crash recovery of a 1 000-object image
// on both clocks: ns/op is the Go, virt-us/op the modelled device time.
func BenchmarkRecover1kObjects(b *testing.B) {
	clk := clock.NewVirtual()
	costs := clock.DefaultCosts()
	dev := device.NewStripe(clk, costs, 4, 64<<10, 4<<30)
	s, err := Format(dev, clk, costs)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		s.PutRecord(s.NewOID(), 1, make([]byte, 200))
	}
	if _, err := s.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	if err := s.WaitDurable(s.Epoch()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	t0 := clk.Now()
	for i := 0; i < b.N; i++ {
		if _, err := Recover(dev, clk, costs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(clk.Now()-t0)/float64(b.N)/1e3, "virt-us/op")
}

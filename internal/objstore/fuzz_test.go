package objstore

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"aurora/internal/clock"
	"aurora/internal/device"
)

// fuzzSeedStore commits one object of every shape and returns the store and
// its device, so the fuzzers start from metadata a real commit laid down.
func fuzzSeedStore(f *testing.F) (*Store, *device.Stripe) {
	clk := clock.NewVirtual()
	dev := device.New(clk, clock.DefaultCosts(), 64<<20)
	s, err := Format(dev, clk, clock.DefaultCosts())
	if err != nil {
		f.Fatal(err)
	}
	if err := s.PutRecord(s.NewOID(), 1, bytes.Repeat([]byte{0x5A}, 300)); err != nil {
		f.Fatal(err)
	}
	paged := s.NewOID()
	s.Ensure(paged, 9)
	for _, pg := range []int64{0, 1, ChunkFanout + 2} { // two block-map chunks
		if err := s.WritePage(paged, pg, walPage(byte(pg))); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := s.CreateJournal(s.NewOID(), 3, 4*BlockSize); err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2; i++ { // a second epoch, so the index lists history
		if _, err := s.Checkpoint(); err != nil {
			f.Fatal(err)
		}
	}
	return s, dev
}

// FuzzDecodeRecord: the object-record decoder must never panic or size an
// allocation off an unchecked count, must report every failure as
// ErrCorrupt, and whatever it accepts must survive a re-encode.
func FuzzDecodeRecord(f *testing.F) {
	s, dev := fuzzSeedStore(f)
	for _, o := range s.objects {
		b := make([]byte, o.recordLen)
		if _, err := dev.ReadAt(b, o.recordAddr); err != nil {
			f.Fatal(err)
		}
		if _, err := decodeRecord(b); err != nil {
			f.Fatalf("seed record of object %d undecodable: %v", o.oid, err)
		}
		f.Add(b)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := decodeRecord(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v is not ErrCorrupt", err)
			}
			return
		}
		again, err := decodeRecord(encodeRecord(o))
		if err != nil {
			t.Fatalf("re-encoded record undecodable: %v", err)
		}
		if again.oid != o.oid || again.utype != o.utype || again.size != o.size ||
			!bytes.Equal(again.inline, o.inline) || len(again.chunks) != len(o.chunks) ||
			!reflect.DeepEqual(again.journal, o.journal) {
			t.Fatalf("record changed across a re-encode: %+v -> %+v", o, again)
		}
	})
}

// FuzzDecodeIndex holds the checkpoint-index decoder to the same contract.
func FuzzDecodeIndex(f *testing.F) {
	s, dev := fuzzSeedStore(f)
	for _, c := range s.retained {
		b := make([]byte, c.indexLen)
		if _, err := dev.ReadAt(b, c.indexAddr); err != nil {
			f.Fatal(err)
		}
		if _, err := decodeIndex(b, s.dataStart(), dev.Size()); err != nil {
			f.Fatalf("seed index of epoch %d undecodable: %v", c.epoch, err)
		}
		f.Add(b)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeIndex(data, s.dataStart(), dev.Size())
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v is not ErrCorrupt", err)
			}
			return
		}
		again, err := decodeIndex(encodeIndex(st).Seal(), s.dataStart(), dev.Size())
		if err != nil {
			t.Fatalf("re-encoded index undecodable: %v", err)
		}
		if !reflect.DeepEqual(again, st) {
			t.Fatalf("index changed across a re-encode: %+v -> %+v", st, again)
		}
	})
}

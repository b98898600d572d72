package flight

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"aurora/internal/rec"
)

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record(1, EvCheckpointBegin, 1, 2, 3, "x") // must not panic
	if got := r.Events(); got != nil {
		t.Fatalf("nil recorder Events = %v, want nil", got)
	}
	if got := r.Tail(5); got != nil {
		t.Fatalf("nil recorder Tail = %v, want nil", got)
	}
	if r.Seq() != 0 {
		t.Fatalf("nil recorder Seq = %d, want 0", r.Seq())
	}
	if b := r.Snapshot(); b == nil {
		t.Fatalf("nil recorder Snapshot should still seal an empty ring")
	}
}

func TestRingEvictsOldest(t *testing.T) {
	r := NewRecorder(4)
	for i := int64(0); i < 10; i++ {
		r.Record(i, EvFlushJob, i, 0, 0, "")
	}
	if r.Seq() != 10 {
		t.Fatalf("Seq = %d, want 10", r.Seq())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("resident = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(6 + i); ev.At != want {
			t.Fatalf("event %d At = %d, want %d (oldest-first)", i, ev.At, want)
		}
	}
	tail := r.Tail(2)
	if len(tail) != 2 || tail[0].At != 8 || tail[1].At != 9 {
		t.Fatalf("Tail(2) = %v", tail)
	}
	if got := r.Tail(100); len(got) != 4 {
		t.Fatalf("Tail(100) = %d events, want 4", len(got))
	}
}

func TestDetailCapped(t *testing.T) {
	r := NewRecorder(2)
	r.Record(0, EvPowerCut, 0, 0, 0, strings.Repeat("x", 4*MaxDetail))
	if got := len(r.Events()[0].Detail); got != MaxDetail {
		t.Fatalf("detail length = %d, want %d", got, MaxDetail)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := NewRecorder(8)
	want := []Event{
		{At: 10, Kind: EvCheckpointBegin, A: 3, B: 1, C: 0, Detail: "g"},
		{At: 20, Kind: EvFlushJob, A: 3, B: 9, C: 4},
		{At: 30, Kind: EvDevSettle, A: 1, Detail: "epoch 1"},
	}
	for _, ev := range want {
		r.Record(ev.At, ev.Kind, ev.A, ev.B, ev.C, ev.Detail)
	}
	evs, seq, err := Decode(r.Snapshot())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if seq != 3 {
		t.Fatalf("seq = %d, want 3", seq)
	}
	if len(evs) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(evs), len(want))
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, evs[i], want[i])
		}
	}
}

func TestSnapshotRoundTripAfterWrap(t *testing.T) {
	r := NewRecorder(3)
	for i := int64(0); i < 7; i++ {
		r.Record(i, EvDevWrite, i*100, 0, 0, "")
	}
	evs, seq, err := Decode(r.Snapshot())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if seq != 7 || len(evs) != 3 {
		t.Fatalf("seq=%d len=%d, want 7/3", seq, len(evs))
	}
	if evs[0].At != 4 || evs[2].At != 6 {
		t.Fatalf("wrapped order wrong: %v", evs)
	}
}

// reseal recomputes the CRC over a mutated body so corruption tests
// exercise the structural guards, not just the checksum.
func reseal(body []byte) []byte {
	out := append([]byte(nil), body...)
	return append(out, binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(body))...)
}

func TestDecodeCorrupt(t *testing.T) {
	r := NewRecorder(4)
	r.Record(5, EvCheckpointBegin, 1, 2, 3, "hello")
	r.Record(6, EvCheckpointEnd, 1, 2, 4096, "")
	good := r.Snapshot()
	body := good[:len(good)-4]

	cases := []struct {
		name string
		mut  func() []byte
	}{
		{"empty", func() []byte { return nil }},
		{"short", func() []byte { return good[:3] }},
		{"bad crc", func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)-1] ^= 0xFF
			return b
		}},
		{"bad magic", func() []byte {
			b := append([]byte(nil), body...)
			b[0] ^= 0xFF
			return reseal(b)
		}},
		{"count exceeds record", func() []byte {
			b := append([]byte(nil), body...)
			binary.LittleEndian.PutUint32(b[12:], 1<<30)
			return reseal(b)
		}},
		{"truncated mid-event", func() []byte {
			return reseal(body[:len(body)-8])
		}},
		{"detail length overruns", func() []byte {
			b := append([]byte(nil), body...)
			// The first event's detail length prefix sits after the
			// header (16) plus At/Kind/A/B/C (33).
			binary.LittleEndian.PutUint32(b[16+33:], 1<<24)
			return reseal(b)
		}},
		{"trailing garbage", func() []byte {
			return reseal(append(append([]byte(nil), body...), 0xAA, 0xBB))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := Decode(tc.mut()); err == nil {
				t.Fatalf("Decode accepted corrupt snapshot (%s)", tc.name)
			}
		})
	}

	// The uncorrupted snapshot must still decode after all that slicing.
	if _, _, err := Decode(good); err != nil {
		t.Fatalf("control decode failed: %v", err)
	}
}

func TestKindStrings(t *testing.T) {
	for k := EvCheckpointBegin; k <= EvNetResume; k++ {
		if s := k.String(); strings.HasPrefix(s, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if got := Kind(200).String(); got != fmt.Sprintf("kind(%d)", 200) {
		t.Fatalf("unknown kind string = %q", got)
	}
}

func TestFormat(t *testing.T) {
	if got := Format(nil); !strings.Contains(got, "no flight events") {
		t.Fatalf("empty Format = %q", got)
	}
	out := Format([]Event{{At: 42, Kind: EvPowerCut, A: 7, Detail: "seed=1"}})
	if !strings.Contains(out, "power.cut") || !strings.Contains(out, "seed=1") {
		t.Fatalf("Format = %q", out)
	}
}

// TestMergedTailsEqualSnapshot: a full snapshot plus the tails cut since —
// each from where the last one ended — merge into the ring a full snapshot at
// the last tail would have serialized, byte for byte, whatever the capacity,
// the gaps between cuts (none, a few events, several times the ring) and the
// detail lengths.
func TestMergedTailsEqualSnapshot(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(40)
		r := NewRecorder(capacity)
		record := func(n int) {
			for i := 0; i < n; i++ {
				r.Record(rng.Int63(), Kind(1+rng.Intn(20)), rng.Int63(), -rng.Int63(), int64(i),
					strings.Repeat("d", rng.Intn(MaxDetail+8)))
			}
		}
		gap := func() int {
			switch rng.Intn(4) {
			case 0:
				return 0
			case 1:
				return rng.Intn(3 * capacity)
			default:
				return rng.Intn(6)
			}
		}
		record(gap())
		ring, seq := r.Since(0)
		if !bytes.Equal(ring, r.Snapshot()) {
			t.Fatalf("seed %d: Since(0) differs from Snapshot", seed)
		}
		for k := 0; k < 12; k++ {
			record(gap())
			var tail []byte
			tail, seq = r.Since(seq)
			var err error
			if ring, err = Merge(ring, tail, r.Cap()); err != nil {
				t.Fatalf("seed %d tail %d: %v", seed, k, err)
			}
			if want := r.Snapshot(); !bytes.Equal(ring, want) {
				t.Fatalf("seed %d tail %d (cap %d, seq %d): merged ring differs from the snapshot (%d vs %d bytes)",
					seed, k, capacity, seq, len(ring), len(want))
			}
		}
		// The first tail of a fresh boot's recorder replaces the old ring.
		r2 := NewRecorder(capacity)
		r2.Record(1, EvRestore, 2, 3, 4, "boot")
		tail, _ := r2.Since(0)
		got, err := Merge(ring, tail, capacity)
		if err != nil || !bytes.Equal(got, r2.Snapshot()) {
			t.Fatalf("seed %d: another recorder's tail did not replace the ring (err %v)", seed, err)
		}
		// No base at all is an empty ring.
		if got, err := Merge(nil, tail, capacity); err != nil || !bytes.Equal(got, r2.Snapshot()) {
			t.Fatalf("seed %d: merge onto no base: err %v", seed, err)
		}
	}
}

func TestMergeRejectsCorrupt(t *testing.T) {
	r := NewRecorder(4)
	r.Record(1, EvRestore, 0, 0, 0, "x")
	good := r.Snapshot()
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 1
	if _, err := Merge(good, bad, 4); !errors.Is(err, rec.ErrCorrupt) {
		t.Fatalf("corrupt tail: %v", err)
	}
	if _, err := Merge(bad, good, 4); !errors.Is(err, rec.ErrCorrupt) {
		t.Fatalf("corrupt base: %v", err)
	}
}

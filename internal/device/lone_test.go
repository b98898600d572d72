package device

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"aurora/internal/clock"
)

// TestLoneDevicePinned drives a seeded mix through device.New — what the
// criu and RDB baselines and most tests run on: criu-shaped synchronous
// WriteAt/ReadAt, vectored Submit with and without an ordering constraint,
// SubmitRead, WaitUntil and Flush — and pins the final virtual clock, a hash
// of every completion time returned, the traffic counters and the SHA-256 of
// the media. Zero-length synchronous IO is left out: it has no caller, and
// the charge for it is a documented rule of its own.
func TestLoneDevicePinned(t *testing.T) {
	const size = 8 << 20
	clk := clock.NewVirtual()
	d := New(clk, clock.DefaultCosts(), size)
	rng := rand.New(rand.NewSource(30))
	done := sha256.New()
	note := func(t time.Duration) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(t))
		done.Write(b[:])
	}
	payload := func(n int) []byte {
		p := make([]byte, n)
		rng.Read(p)
		return p
	}
	span := func(max int) (int, int64) {
		n := 1 + rng.Intn(max)
		return n, rng.Int63n(size - int64(n) + 1)
	}
	var last time.Duration
	for op := 0; op < 300; op++ {
		clk.Advance(time.Duration(rng.Intn(150)) * time.Microsecond)
		switch rng.Intn(8) {
		case 0: // criu's image write: whole MiB chunks
			off := rng.Int63n(size/(1<<20)) << 20
			if _, err := d.WriteAt(payload(1<<20), off); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		case 1:
			n, off := span(256 << 10)
			if _, err := d.WriteAt(payload(n), off); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		case 2:
			n, off := span(256 << 10)
			if _, err := d.ReadAt(make([]byte, n), off); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		case 3, 4: // vectored submit, unordered or behind a constraint
			bufs := make([][]byte, 1+rng.Intn(5))
			var total int64
			for i := range bufs {
				if rng.Intn(5) > 0 { // one slice in five stays empty
					bufs[i] = payload(1 + rng.Intn(40<<10))
					total += int64(len(bufs[i]))
				}
			}
			var after time.Duration
			if rng.Intn(2) == 0 {
				after = max(0, clk.Now()+time.Duration(rng.Intn(400)-100)*time.Microsecond)
			}
			off := rng.Int63n(size - total + 1)
			t1, err := d.Submit(bufs, off, after)
			if err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			note(t1)
			last = max(last, t1)
		case 5:
			n, off := span(64 << 10)
			t1, err := d.SubmitRead(make([]byte, n), off)
			if err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			note(t1)
			last = max(last, t1)
		case 6:
			d.WaitUntil(last)
		case 7:
			d.Flush()
		}
		note(clk.Now())
		if op%50 == 49 { // an IO past the end is refused whole
			if _, err := d.WriteAt(make([]byte, 4096), size-100); !errors.Is(err, ErrOutOfRange) {
				t.Fatalf("op %d: overrunning write: %v", op, err)
			}
			if _, err := d.Submit([][]byte{make([]byte, 4096)}, size-100, 0); !errors.Is(err, ErrOutOfRange) {
				t.Fatalf("op %d: overrunning submit: %v", op, err)
			}
		}
	}
	media := make([]byte, size)
	d.PeekAt(media, 0)
	got := fmt.Sprintf("clock=%d completions=%x stats=%+v media=%x",
		clk.Now(), done.Sum(nil)[:8], d.Stats(), sha256.Sum256(media))
	const want = "clock=51852298 completions=594edd67c570f877 stats={Reads:84 Writes:147 BytesRead:6999419 BytesWritten:53607895 Flushes:36} media=133cc2b8e90b87e7dd0786eae2f99970847c8fc7d3f9568bc37dd84d29d59dcd"
	if got != want {
		t.Fatalf("lone device moved:\n got %s\nwant %s", got, want)
	}
}

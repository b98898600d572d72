package device

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"aurora/internal/clock"
)

func newDev(size int64) (*Stripe, *clock.Virtual) {
	clk := clock.NewVirtual()
	return New(clk, clock.DefaultCosts(), size), clk
}

// write submits p at off and waits for its completion.
func write(d *Stripe, p []byte, off int64) error {
	done, err := d.SubmitWrite(p, off)
	if err == nil {
		d.WaitUntil(done)
	}
	return err
}

func TestReadBackWritten(t *testing.T) {
	d, _ := newDev(1 << 20)
	want := []byte("aurora single level store")
	if err := write(d, want, 4096); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if _, err := d.ReadAt(got, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read %q, want %q", got, want)
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	d, _ := newDev(1 << 20)
	got := make([]byte, 100)
	got[5] = 0xFF
	if _, err := d.ReadAt(got, 500<<10); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %d, want 0", i, b)
		}
	}
}

func TestWriteSpanningChunks(t *testing.T) {
	d, _ := newDev(1 << 20)
	buf := make([]byte, 3*ChunkSize)
	for i := range buf {
		buf[i] = byte(i)
	}
	off := int64(ChunkSize - 100)
	if err := write(d, buf, off); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(buf))
	if _, err := d.ReadAt(got, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("chunk-spanning write corrupted data")
	}
}

func TestOutOfRange(t *testing.T) {
	d, _ := newDev(4096)
	if err := write(d, make([]byte, 10), 4090); err == nil {
		t.Fatal("write past end succeeded")
	}
	if _, err := d.ReadAt(make([]byte, 10), -1); err == nil {
		t.Fatal("negative-offset read succeeded")
	}
}

// TestSyncWriteChargesTime: a write waited for on an idle device charges
// its bandwidth time plus one command latency.
func TestSyncWriteChargesTime(t *testing.T) {
	d, clk := newDev(1 << 30)
	costs := clock.DefaultCosts()
	clk.Advance(time.Millisecond)
	before := clk.Now()
	if err := write(d, make([]byte, 1<<20), 0); err != nil {
		t.Fatal(err)
	}
	got := clk.Now() - before
	want := clock.XferTime(costs.DevWriteLatency, costs.DevWriteBps, 1<<20)
	if got != want {
		t.Fatalf("1 MiB waited write charged %v, want %v", got, want)
	}
}

func TestSubmitWritePipelines(t *testing.T) {
	d, clk := newDev(1 << 30)
	costs := clock.DefaultCosts()
	occ := clock.XferTime(0, costs.DevWriteBps, 1<<20)
	lat := costs.DevWriteLatency
	t1, err := d.SubmitWrite(make([]byte, 1<<20), 0)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := d.SubmitWrite(make([]byte, 1<<20), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if clk.Now() != 0 {
		t.Fatalf("submit advanced caller clock to %v", clk.Now())
	}
	// Bandwidth serializes; the fixed command latency pipelines.
	if t1 != occ+lat || t2 != 2*occ+lat {
		t.Fatalf("completions %v, %v; want %v, %v", t1, t2, occ+lat, 2*occ+lat)
	}
	d.WaitUntil(t2)
	if clk.Now() != 2*occ+lat {
		t.Fatalf("wait advanced to %v, want %v", clk.Now(), 2*occ+lat)
	}
	// Data visible after submit.
	got := make([]byte, 1)
	if _, err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
}

func TestWaitUntilPastIsNoop(t *testing.T) {
	d, clk := newDev(1 << 20)
	clk.Advance(time.Second)
	d.WaitUntil(time.Millisecond)
	if clk.Now() != time.Second {
		t.Fatalf("WaitUntil in the past moved clock to %v", clk.Now())
	}
}

func TestStats(t *testing.T) {
	d, _ := newDev(1 << 20)
	write(d, make([]byte, 100), 0)
	d.ReadAt(make([]byte, 50), 0)
	st := d.Stats()
	if st.Writes != 1 || st.BytesWritten != 100 || st.Reads != 1 || st.BytesRead != 50 {
		t.Fatalf("stats = %+v", st)
	}
}

func newStripe() (*Stripe, *clock.Virtual) {
	clk := clock.NewVirtual()
	return NewStripe(clk, clock.DefaultCosts(), 4, 64<<10, 256<<20), clk
}

func TestStripeRoundTrip(t *testing.T) {
	s, _ := newStripe()
	buf := make([]byte, 300<<10) // spans several stripe units
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	if err := write(s, buf, 17); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(buf))
	if _, err := s.ReadAt(got, 17); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("stripe round trip corrupted data")
	}
}

func TestStripeParallelism(t *testing.T) {
	// A 256 KiB write lands 64 KiB on each of 4 devices; waiting for it
	// must charge one 64 KiB transfer, not four.
	s, clk := newStripe()
	costs := clock.DefaultCosts()
	if err := write(s, make([]byte, 256<<10), 0); err != nil {
		t.Fatal(err)
	}
	want := clock.XferTime(costs.DevWriteLatency, costs.DevWriteBps, 64<<10)
	if got := clk.Now(); got != want {
		t.Fatalf("striped write charged %v, want %v (single member)", got, want)
	}
}

func TestStripeUnbalancedChargesWorstMember(t *testing.T) {
	s, clk := newStripe()
	costs := clock.DefaultCosts()
	// 128 KiB starting at 0: units 0 and 1 -> devices 0 and 1 only.
	if err := write(s, make([]byte, 128<<10), 0); err != nil {
		t.Fatal(err)
	}
	want := clock.XferTime(costs.DevWriteLatency, costs.DevWriteBps, 64<<10)
	if got := clk.Now(); got != want {
		t.Fatalf("charged %v, want %v", got, want)
	}
}

func TestStripeSubmitAndWait(t *testing.T) {
	s, clk := newStripe()
	done, err := s.SubmitWrite(make([]byte, 1<<20), 0)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Fatal("completion time not positive")
	}
	if clk.Now() != 0 {
		t.Fatal("submit advanced clock")
	}
	s.WaitUntil(done)
	if clk.Now() != done {
		t.Fatalf("wait left clock at %v, want completion %v", clk.Now(), done)
	}
	got := make([]byte, 1<<20)
	if _, err := s.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
}

func TestStripeOutOfRange(t *testing.T) {
	s, _ := newStripe()
	if _, err := s.SubmitWrite(make([]byte, 10), s.Size()-5); err == nil {
		t.Fatal("write past stripe end succeeded")
	}
	if _, err := s.SubmitWrite(make([]byte, 10), -2); err == nil {
		t.Fatal("negative submit succeeded")
	}
}

// Property: any sequence of writes then a full readback equals a shadow buffer.
func TestDeviceMatchesShadowProperty(t *testing.T) {
	const size = 8 << 10
	type op struct {
		Off  uint16
		Data []byte
	}
	f := func(ops []op) bool {
		d, _ := newDev(size)
		shadow := make([]byte, size)
		for _, o := range ops {
			off := int64(o.Off) % size
			n := int64(len(o.Data))
			if off+n > size {
				n = size - off
			}
			if n <= 0 {
				continue
			}
			if err := write(d, o.Data[:n], off); err != nil {
				return false
			}
			copy(shadow[off:], o.Data[:n])
		}
		got := make([]byte, size)
		if _, err := d.ReadAt(got, 0); err != nil {
			return false
		}
		return bytes.Equal(got, shadow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: stripe set behaves identically to a flat device for data.
func TestStripeMatchesFlatProperty(t *testing.T) {
	type op struct {
		Off  uint32
		Data []byte
	}
	f := func(ops []op) bool {
		s, _ := newStripe()
		flat, _ := newDev(s.Size())
		for _, o := range ops {
			off := int64(o.Off) % (s.Size() - 1<<20)
			if len(o.Data) == 0 {
				continue
			}
			if err := write(s, o.Data, off); err != nil {
				return false
			}
			if err := write(flat, o.Data, off); err != nil {
				return false
			}
		}
		a := make([]byte, 2<<20)
		b := make([]byte, 2<<20)
		s.ReadAt(a, 0)
		flat.ReadAt(b, 0)
		return bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitWritevZeroLengthBuffers(t *testing.T) {
	page := func(b byte) []byte { return bytes.Repeat([]byte{b}, 4096) }

	t.Run("interleaved-empty", func(t *testing.T) {
		d, _ := newDev(1 << 20)
		vec := [][]byte{{}, page(0xA1), nil, page(0xB2), {}}
		if _, err := d.Submit(vec, 8192, 0); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 8192)
		if _, err := d.ReadAt(got, 8192); err != nil {
			t.Fatal(err)
		}
		if got[0] != 0xA1 || got[4096] != 0xB2 {
			t.Fatalf("payload landed wrong: %#x %#x", got[0], got[4096])
		}
		if st := d.Stats(); st.Writes != 1 || st.BytesWritten != 8192 {
			t.Fatalf("stats = %+v, want 1 write of 8192 bytes", st)
		}
	})

	t.Run("entirely-empty", func(t *testing.T) {
		d, clk := newDev(1 << 20)
		done, err := d.Submit([][]byte{{}, nil, {}}, 4096, 0)
		if err != nil {
			t.Fatal(err)
		}
		if done != clk.Now() {
			t.Fatalf("empty vector completes at %v, want now (%v)", done, clk.Now())
		}
		if st := d.Stats(); st.Writes != 0 || st.BytesWritten != 0 {
			t.Fatalf("empty vector moved counters: %+v", st)
		}
	})

	t.Run("entirely-empty-at-device-end", func(t *testing.T) {
		// A zero-byte vector at the very end of the device is in range:
		// [size, size) is empty.
		d, _ := newDev(1 << 20)
		if _, err := d.Submit(nil, 1<<20, 0); err != nil {
			t.Fatalf("zero bytes at device end: %v", err)
		}
	})

	t.Run("stripe", func(t *testing.T) {
		s, clk := newStripe()
		done, err := s.SubmitWritev([][]byte{nil, {}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if done != clk.Now() {
			t.Fatalf("empty vector completes at %v, want now", done)
		}
		if st := s.Stats(); st.Writes != 0 {
			t.Fatalf("empty vector issued %d member commands", st.Writes)
		}
	})
}

func TestOrderedSubmitOrdersTransfer(t *testing.T) {
	d, clk := newDev(1 << 20)
	costs := clock.DefaultCosts()
	buf := make([]byte, 4096)

	// Unconstrained: same completion as SubmitWrite on an idle queue.
	plain, err := d.SubmitWrite(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Constrained to start far in the future: completion is pushed past the
	// constraint, regardless of the queue being free earlier.
	after := plain + time.Millisecond
	ordered, err := d.Submit([][]byte{buf}, 4096, after)
	if err != nil {
		t.Fatal(err)
	}
	if ordered < after+costs.DevWriteLatency {
		t.Fatalf("ordered completion %v, want >= constraint %v + latency", ordered, after)
	}
	// A past constraint is a no-op: behaves like a plain submit.
	clk.Advance(2 * time.Millisecond)
	relaxed, err := d.Submit([][]byte{buf}, 8192, clk.Now()-time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(clk, costs, 1<<20).SubmitWrite(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if relaxed != want {
		t.Fatalf("past-constraint completion %v, plain submit on idle queue %v", relaxed, want)
	}
}

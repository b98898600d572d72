package faultdev

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"aurora/internal/clock"
	"aurora/internal/device"
)

func newDev(t *testing.T, plan Plan) (*Dev, *clock.Virtual) {
	t.Helper()
	clk := clock.NewVirtual()
	inner := device.New(clk, clock.DefaultCosts(), 1<<20)
	return New(inner, clk, plan), clk
}

// SubmitWrite is the one-buffer, unordered Submit most tests here need.
func (d *Dev) SubmitWrite(p []byte, off int64) (time.Duration, error) {
	return d.Submit([][]byte{p}, off, 0)
}

func peekAll(d *Dev) []byte {
	p := make([]byte, d.Size())
	d.PeekAt(p, 0)
	return p
}

func TestCutAtExactSubmitIndex(t *testing.T) {
	d, _ := newDev(t, Plan{CutAtSubmit: 3})
	buf := make([]byte, 4096)
	for i := 0; i < 3; i++ {
		if _, err := d.SubmitWrite(buf, int64(i)*4096); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if d.Crashed() {
		t.Fatal("crashed before the armed index")
	}
	_, err := d.SubmitWrite(buf, 3*4096)
	if !errors.Is(err, ErrPowerCut) {
		t.Fatalf("submit 3: %v, want ErrPowerCut", err)
	}
	if !d.Crashed() {
		t.Fatal("not crashed after the armed index")
	}
	// Everything fails until Reopen.
	if _, err := d.ReadAt(buf, 0); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("read on dead device: %v", err)
	}
	if _, err := d.SubmitWrite(buf, 0); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("write on dead device: %v", err)
	}
	d.Reopen()
	if _, err := d.ReadAt(buf, 0); err != nil {
		t.Fatalf("read after reopen: %v", err)
	}
	// The counter kept counting through the crash: 4 counted submits so far.
	if got := d.Submits(); got != 4 {
		t.Fatalf("submits = %d, want 4", got)
	}
}

func TestOffsetWindowTrigger(t *testing.T) {
	d, _ := newDev(t, Plan{CutAtSubmit: -1, CutOffLo: 0, CutOffHi: 8192})
	buf := make([]byte, 4096)
	// Outside the window: fine.
	if _, err := d.SubmitWrite(buf, 64<<10); err != nil {
		t.Fatal(err)
	}
	// Overlapping the window: cut.
	if _, err := d.SubmitWrite(buf, 4096); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("window write: %v, want ErrPowerCut", err)
	}
}

// The same plan replays the identical post-crash image, byte for byte —
// the determinism contract the whole crash sweep rests on.
func TestTornCrashReplaysIdentically(t *testing.T) {
	run := func() []byte {
		d, _ := newDev(t, Plan{Seed: 42, CutAtSubmit: 2, Torn: true})
		a := bytes.Repeat([]byte{0xAA}, 8192)
		b := bytes.Repeat([]byte{0xBB}, 8192)
		c := bytes.Repeat([]byte{0xCC}, 8192)
		if _, err := d.SubmitWrite(a, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := d.SubmitWrite(b, 8192); err != nil {
			t.Fatal(err)
		}
		if _, err := d.SubmitWrite(c, 16384); !errors.Is(err, ErrPowerCut) {
			t.Fatalf("cut write: %v", err)
		}
		return peekAll(d)
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("two runs of the same plan produced different images")
	}
}

func TestTornWriteLandsSectorPrefix(t *testing.T) {
	// Sweep seeds until we see both a partial tear and confirm every tear
	// is a whole-sector prefix: new bytes up to a 512 boundary, old after.
	sawPartial := false
	for seed := int64(0); seed < 32; seed++ {
		d, _ := newDev(t, Plan{Seed: seed, CutAtSubmit: 0, Torn: true})
		data := bytes.Repeat([]byte{0x5A}, 8192)
		if _, err := d.SubmitWrite(data, 4096); !errors.Is(err, ErrPowerCut) {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got := make([]byte, 8192)
		d.PeekAt(got, 4096)
		landed := 0
		for landed < len(got) && got[landed] == 0x5A {
			landed++
		}
		if landed%TearSector != 0 {
			t.Fatalf("seed %d: torn prefix %d bytes, not sector-aligned", seed, landed)
		}
		for i := landed; i < len(got); i++ {
			if got[i] != 0 {
				t.Fatalf("seed %d: byte %d = %#x after the torn prefix, want old contents", seed, i, got[i])
			}
		}
		if landed > 0 && landed < len(got) {
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Fatal("no seed in 0..31 produced a partial tear; PRNG wiring suspect")
	}
}

func TestCutWithoutTearDropsWholeWrite(t *testing.T) {
	d, _ := newDev(t, Plan{CutAtSubmit: 0})
	if _, err := d.SubmitWrite(bytes.Repeat([]byte{0x77}, 4096), 0); !errors.Is(err, ErrPowerCut) {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	d.PeekAt(got, 0)
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want untouched media", i, b)
		}
	}
}

// A write that settled (its completion time passed, e.g. after a barrier)
// survives a DropInFlight cut; a write still in the queue is rolled back
// to its pre-image.
func TestDropInFlightRespectsBarrier(t *testing.T) {
	d, _ := newDev(t, Plan{CutAtSubmit: -1, DropInFlight: true})
	settled := bytes.Repeat([]byte{0x11}, 4096)
	doomed := bytes.Repeat([]byte{0x22}, 4096)

	done, err := d.SubmitWrite(settled, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.WaitUntil(done) // barrier: the first write is now durable

	if _, err := d.SubmitWrite(doomed, 8192); err != nil {
		t.Fatal(err)
	}
	d.Arm(Plan{CutAtSubmit: d.Submits(), DropInFlight: true})
	if _, err := d.SubmitWrite(make([]byte, 4096), 16384); !errors.Is(err, ErrPowerCut) {
		t.Fatal(err)
	}

	got := make([]byte, 4096)
	d.PeekAt(got, 0)
	if !bytes.Equal(got, settled) {
		t.Fatal("settled write did not survive the cut")
	}
	d.PeekAt(got, 8192)
	for i, b := range got {
		if b != 0 {
			t.Fatalf("in-flight write byte %d = %#x, want pre-image (zero)", i, b)
		}
	}
}

// Without DropInFlight every pre-cut submit survives — the prefix model.
func TestPrefixModelKeepsAllPreCutWrites(t *testing.T) {
	d, _ := newDev(t, Plan{CutAtSubmit: 2})
	a := bytes.Repeat([]byte{0x33}, 4096)
	b := bytes.Repeat([]byte{0x44}, 4096)
	d.SubmitWrite(a, 0)
	d.SubmitWrite(b, 4096)
	if _, err := d.SubmitWrite(make([]byte, 4096), 8192); !errors.Is(err, ErrPowerCut) {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	d.PeekAt(got, 0)
	if !bytes.Equal(got, a) {
		t.Fatal("submit 0 lost under prefix model")
	}
	d.PeekAt(got, 4096)
	if !bytes.Equal(got, b) {
		t.Fatal("submit 1 lost under prefix model")
	}
}

func TestBitRotFlipsReadsNotMedia(t *testing.T) {
	d, _ := newDev(t, Plan{CutAtSubmit: -1, RotOffsets: []int64{4100}})
	data := bytes.Repeat([]byte{0x0F}, 4096)
	if _, err := d.SubmitWrite(data, 4096); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if _, err := d.ReadAt(got, 4096); err != nil {
		t.Fatal(err)
	}
	if got[4] != 0x0F^0x40 {
		t.Fatalf("rotted byte = %#x, want %#x", got[4], 0x0F^0x40)
	}
	if got[3] != 0x0F || got[5] != 0x0F {
		t.Fatal("rot leaked to neighboring bytes")
	}
	// Raw media is intact: rot is a read-path phenomenon.
	d.PeekAt(got, 4096)
	if got[4] != 0x0F {
		t.Fatalf("media byte = %#x, want %#x", got[4], 0x0F)
	}
	// Rot persists across Reopen (decay, not queue state).
	d.Reopen()
	if _, err := d.ReadAt(got, 4096); err != nil {
		t.Fatal(err)
	}
	if got[4] != 0x0F^0x40 {
		t.Fatal("rot did not persist across Reopen")
	}
}

func TestOutOfRangeWriteNotCounted(t *testing.T) {
	d, _ := newDev(t, Plan{CutAtSubmit: 0})
	// Rejected by the inner device; must not count and must not trigger the
	// cut armed at index 0.
	if _, err := d.SubmitWrite(make([]byte, 4096), d.Size()); err == nil || errors.Is(err, ErrPowerCut) {
		t.Fatalf("out-of-range write: %v, want inner range error", err)
	}
	if d.Crashed() {
		t.Fatal("out-of-range write triggered the cut")
	}
	if got := d.Submits(); got != 0 {
		t.Fatalf("submits = %d, want 0", got)
	}
}

func TestStripeComposition(t *testing.T) {
	// The wrapper composes over a four-member stripe the same as over a lone device,
	// including tearing across the stripe unit boundary.
	clk := clock.NewVirtual()
	stripe := device.NewStripe(clk, clock.DefaultCosts(), 4, 64<<10, 1<<20)
	d := New(stripe, clk, Plan{Seed: 7, CutAtSubmit: 1, Torn: true})
	first := bytes.Repeat([]byte{0x66}, 4096)
	if _, err := d.SubmitWrite(first, 0); err != nil {
		t.Fatal(err)
	}
	// 256 KiB spans all four members.
	if _, err := d.SubmitWrite(bytes.Repeat([]byte{0x99}, 256<<10), 0); !errors.Is(err, ErrPowerCut) {
		t.Fatal(err)
	}
	got := make([]byte, 256<<10)
	d.PeekAt(got, 0)
	landed := 0
	for landed < len(got) && got[landed] == 0x99 {
		landed++
	}
	if landed%TearSector != 0 {
		t.Fatalf("torn prefix %d bytes, not sector-aligned", landed)
	}
	// Beyond the prefix the pre-image (the first write, then zeros) remains.
	for i := landed; i < len(got); i++ {
		want := byte(0)
		if i < 4096 {
			want = 0x66
		}
		if got[i] != want {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], want)
		}
	}
}

func TestVectoredSubmitCountsOnce(t *testing.T) {
	d, _ := newDev(t, Plan{CutAtSubmit: -1})
	vec := [][]byte{make([]byte, 4096), make([]byte, 4096)}
	if _, err := d.Submit(vec, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := d.Submits(); got != 1 {
		t.Fatalf("vectored write counted %d submits, want 1", got)
	}
}

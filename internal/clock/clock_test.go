package clock

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestVirtualAdvance(t *testing.T) {
	c := NewVirtual()
	if got := c.Now(); got != 0 {
		t.Fatalf("fresh clock Now() = %v, want 0", got)
	}
	c.Advance(5 * time.Millisecond)
	c.Advance(3 * time.Microsecond)
	if got, want := c.Now(), 5*time.Millisecond+3*time.Microsecond; got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestVirtualNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	NewVirtual().Advance(-1)
}

func TestVirtualConcurrentAdvance(t *testing.T) {
	c := NewVirtual()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Advance(time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if got, want := c.Now(), time.Duration(workers*per); got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestStopwatch(t *testing.T) {
	c := NewVirtual()
	c.Advance(time.Second)
	sw := StartStopwatch(c)
	c.Advance(250 * time.Millisecond)
	if got := sw.Elapsed(); got != 250*time.Millisecond {
		t.Fatalf("Elapsed() = %v, want 250ms", got)
	}
}

func TestXferTime(t *testing.T) {
	tests := []struct {
		name string
		lat  time.Duration
		bps  int64
		n    int64
		want time.Duration
	}{
		{"zero bytes", 10 * time.Microsecond, 1 << 30, 0, 10 * time.Microsecond},
		{"latency only when bps unset", 5 * time.Microsecond, 0, 4096, 5 * time.Microsecond},
		{"one second of bandwidth", 0, 1 << 20, 1 << 20, time.Second},
		{"half second", time.Millisecond, 2 << 20, 1 << 20, time.Millisecond + 500*time.Millisecond},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := XferTime(tt.lat, tt.bps, tt.n); got != tt.want {
				t.Fatalf("XferTime(%v, %d, %d) = %v, want %v", tt.lat, tt.bps, tt.n, got, tt.want)
			}
		})
	}
}

func TestXferTimeNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("XferTime with negative size did not panic")
		}
	}()
	XferTime(0, 1, -1)
}

// Property: advancing by a sequence of non-negative durations yields their sum.
func TestVirtualSumProperty(t *testing.T) {
	f := func(steps []uint16) bool {
		c := NewVirtual()
		var want time.Duration
		for _, s := range steps {
			d := time.Duration(s)
			c.Advance(d)
			want += d
		}
		return c.Now() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: XferTime is monotone in transfer size.
func TestXferTimeMonotoneProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		lo, hi := int64(a), int64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		c := DefaultCosts()
		return XferTime(c.DevWriteLatency, c.DevWriteBps, lo) <= XferTime(c.DevWriteLatency, c.DevWriteBps, hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultCostsCalibration(t *testing.T) {
	c := DefaultCosts()
	// Table 5: a 4 KiB journaled write should land near 28 us.
	got := XferTime(c.JournalLatency, c.JournalBps, 4096)
	if got < 26*time.Microsecond || got > 30*time.Microsecond {
		t.Errorf("4 KiB journal write = %v, want ~28us", got)
	}
	// Table 5: a 1 GiB journaled write should land near 417 ms.
	got = XferTime(c.JournalLatency, c.JournalBps, 1<<30)
	if got < 380*time.Millisecond || got > 440*time.Millisecond {
		t.Errorf("1 GiB journal write = %v, want ~417ms", got)
	}
	// Table 4: kqueue with 1024 events near 35 us.
	kq := time.Duration(1024)*c.KqueueEvent + c.SerializeBase
	if kq < 30*time.Microsecond || kq > 40*time.Microsecond {
		t.Errorf("kqueue/1024 checkpoint = %v, want ~35us", kq)
	}
}

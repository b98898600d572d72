package device

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"aurora/internal/clock"
	"aurora/internal/trace"
)

// submitter is the write surface Device and Stripe share, plus what the
// property test needs to look inside.
type submitter interface {
	Submit(bufs [][]byte, off int64, after time.Duration) (time.Duration, error)
	SubmitWrite(p []byte, off int64) (time.Duration, error)
	PeekAt(p []byte, off int64)
	Stats() Stats
	Size() int64
}

// queues snapshots every member's queue horizon.
func queues(s submitter) []time.Duration {
	switch d := s.(type) {
	case *Device:
		return []time.Duration{d.nextFree}
	case *Stripe:
		var out []time.Duration
		for _, m := range d.devs {
			out = append(out, m.nextFree)
		}
		return out
	}
	panic("unknown submitter")
}

// TestSubmitProperty drives seeded random (sizes, offset, after) sequences
// through twin devices. The vectored twin takes each vector as one Submit;
// the piecewise twin takes the same bytes one slice at a time (through the
// unordered SubmitWrite form whenever after is 0). They must agree on
// completion time, bytes counted and media; a zero-byte vector must issue no
// command, and an out-of-range vector must move neither queue, counters nor
// media — on a bare device and on a stripe whose vectors straddle unit and
// member boundaries.
func TestSubmitProperty(t *testing.T) {
	const size = 1 << 20
	kinds := []struct {
		name string
		mk   func(clk clock.Clock) submitter
		cmds func(off, n int64) int64 // commands one n-byte vector at off costs
	}{
		{"device", func(clk clock.Clock) submitter { return New(clk, clock.DefaultCosts(), size) },
			func(off, n int64) int64 { return 1 }},
		{"stripe", func(clk clock.Clock) submitter {
			return NewStripe(clk, clock.DefaultCosts(), 4, 64<<10, size/4)
		}, func(off, n int64) int64 { return (off+n-1)/(64<<10) - off/(64<<10) + 1 }},
	}
	for _, k := range kinds {
		for seed := int64(1); seed <= 40; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", k.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				clkA, clkB := clock.NewVirtual(), clock.NewVirtual()
				vec, piece := k.mk(clkA), k.mk(clkB)
				model := make([]byte, size)
				var wantCmds int64

				for op := 0; op < 60; op++ {
					adv := time.Duration(rng.Intn(200)) * time.Microsecond
					clkA.Advance(adv)
					clkB.Advance(adv)

					bufs := make([][]byte, 1+rng.Intn(6))
					var total int64
					for i := range bufs {
						if rng.Intn(5) > 0 { // one slice in five stays empty
							bufs[i] = make([]byte, 1+rng.Intn(40<<10))
							rng.Read(bufs[i])
							total += int64(len(bufs[i]))
						}
					}
					var after time.Duration
					if rng.Intn(2) == 0 {
						after = clkA.Now() + time.Duration(rng.Intn(400)-100)*time.Microsecond
						if after < 0 {
							after = 0
						}
					}
					off := rng.Int63n(size)
					stats, q := vec.Stats(), queues(vec)

					if off+total > size {
						if _, err := vec.Submit(bufs, off, after); !errors.Is(err, ErrOutOfRange) {
							t.Fatalf("op %d: overrunning vector: err = %v", op, err)
						}
					} else {
						done, err := vec.Submit(bufs, off, after)
						if err != nil {
							t.Fatalf("op %d: %v", op, err)
						}
						var pieces time.Duration
						o := off
						for _, b := range bufs {
							var d time.Duration
							if after == 0 {
								d, err = piece.SubmitWrite(b, o)
							} else {
								d, err = piece.Submit([][]byte{b}, o, after)
							}
							if err != nil {
								t.Fatalf("op %d: piecewise: %v", op, err)
							}
							if d > pieces {
								pieces = d
							}
							copy(model[o:], b)
							o += int64(len(b))
						}
						if done != pieces {
							t.Fatalf("op %d: vectored completion %v, piecewise %v (off %d, %d bytes, after %v)",
								op, done, pieces, off, total, after)
						}
						if total > 0 {
							wantCmds += k.cmds(off, total)
							continue
						}
						if done != clkA.Now() {
							t.Fatalf("op %d: empty vector completes at %v, want now %v", op, done, clkA.Now())
						}
					}
					// Rejected or empty: nothing may have moved.
					if st := vec.Stats(); st != stats {
						t.Fatalf("op %d: counters moved %+v -> %+v", op, stats, st)
					}
					if got := queues(vec); fmt.Sprint(got) != fmt.Sprint(q) {
						t.Fatalf("op %d: queue moved %v -> %v", op, q, got)
					}
				}

				a, b := vec.Stats(), piece.Stats()
				if a.BytesWritten != b.BytesWritten {
					t.Fatalf("bytes written: vectored %d, piecewise %d", a.BytesWritten, b.BytesWritten)
				}
				if a.Writes != wantCmds {
					t.Fatalf("vectored twin issued %d commands, want %d", a.Writes, wantCmds)
				}
				ga, gb := make([]byte, size), make([]byte, size)
				vec.PeekAt(ga, 0)
				piece.PeekAt(gb, 0)
				if !bytes.Equal(ga, model) || !bytes.Equal(gb, model) {
					t.Fatal("media differs from the model (a rejected vector landed bytes, or a twin diverged)")
				}
			})
		}
	}
}

// TestWriteTraceName pins the trace name of a write submit as a function of
// its shape alone — what a fault-wrapped and a bare machine must agree on.
func TestWriteTraceName(t *testing.T) {
	page := make([]byte, 4096)
	for _, tc := range []struct {
		nbufs int
		after time.Duration
		want  string
	}{
		{1, 0, "dev.write"},
		{3, 0, "dev.writev"},
		{1, time.Millisecond, "dev.write_after"},
		{3, time.Millisecond, "dev.writev_after"},
	} {
		bufs := make([][]byte, tc.nbufs)
		for i := range bufs {
			bufs[i] = page
		}
		clk := clock.NewVirtual()
		d := New(clk, clock.DefaultCosts(), 1<<20)
		s := NewStripe(clk, clock.DefaultCosts(), 4, 64<<10, 1<<20)
		for name, dev := range map[string]interface {
			submitter
			SetTracer(*trace.Tracer)
		}{"device": d, "stripe": s} {
			tr := trace.New(clk)
			dev.SetTracer(tr)
			if _, err := dev.Submit(bufs, 60<<10, tc.after); err != nil { // straddles a stripe unit
				t.Fatal(err)
			}
			spans := 0
			for _, ev := range tr.Events() {
				if ev.Kind != trace.KindSpan {
					continue
				}
				spans++
				if ev.Name != tc.want {
					t.Errorf("%s: %d buffers, after %v traced as %q, want %q", name, tc.nbufs, tc.after, ev.Name, tc.want)
				}
			}
			if spans == 0 {
				t.Fatalf("%s: no command traced", name)
			}
		}
	}
}

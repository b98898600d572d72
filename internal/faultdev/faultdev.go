// Package faultdev wraps a simulated block device with deterministic fault
// injection, so crash-consistency claims can be checked systematically
// instead of at a single hand-picked point.
//
// The wrapper implements the block-device surface the object store consumes
// (objstore.BlockDev) — ordered submits, reads, waits — and composes over a
// device.Stripe, a lone device included. It injects four fault classes:
//
//	(a) power cut after the Nth submit — every counted write carries a
//	    monotonically increasing submit index; when the armed index (or an
//	    armed offset window) is reached the device "dies" and all further
//	    IO fails with ErrPowerCut until Reopen,
//	(b) torn writes — the cut write itself lands only a prefix, in
//	    TearSector units, chosen by the seeded PRNG,
//	(c) loss of the unsynced window — writes whose modeled completion time
//	    lies after the cut instant never made it out of the queue and are
//	    rolled back to their pre-images (completion order across member
//	    queues is not submission order, so this is what "reordering before
//	    a barrier" costs you under power loss),
//	(d) read bit-rot — armed byte offsets are flipped on every read, for
//	    exercising fsck's checksum scrub.
//
// Determinism contract: a Plan (seed + crash index + mode flags) plus a
// deterministic workload replays the identical failure byte-for-byte. The
// PRNG is consumed only at the crash itself (for tearing), so the stream
// of pre-crash submits cannot perturb it, and pending-write settlement is
// driven by the virtual clock, which the workload controls.
package faultdev

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"aurora/internal/clock"
	"aurora/internal/flight"
	"aurora/internal/trace"
)

// ErrPowerCut is the error every IO returns once the device has crashed.
// It wraps the seed and submit index into the message so a failing test
// prints everything needed to replay the exact failure.
var ErrPowerCut = errors.New("faultdev: power cut")

// Inner is what faultdev composes over: the block-device operations the
// store calls plus the uncharged raw-media port used for pre-image capture
// and tearing. *device.Stripe satisfies it.
type Inner interface {
	ReadAt(p []byte, off int64) (int, error)
	Submit(bufs [][]byte, off int64, after time.Duration) (time.Duration, error)
	SubmitRead(p []byte, off int64) (time.Duration, error)
	WaitUntil(t time.Duration)
	Size() int64
	PeekAt(p []byte, off int64)
	PokeAt(p []byte, off int64)
}

// TearSector is the granularity at which a torn write lands, matching the
// 512-byte atom real NVMe devices guarantee.
const TearSector = 512

// Plan describes one deterministic fault scenario.
type Plan struct {
	// Seed feeds the PRNG that picks the torn prefix length.
	Seed int64

	// CutAtSubmit kills the device at this 0-based submit index; negative
	// disarms the counter trigger. The cut write itself is the torn one.
	CutAtSubmit int64

	// CutOffLo/CutOffHi arm an offset-window trigger: the first counted
	// write overlapping [CutOffLo, CutOffHi) is the cut. Disabled when
	// CutOffHi <= CutOffLo. Useful for "crash on the superblock" tests
	// that don't want to count submits.
	CutOffLo, CutOffHi int64

	// Torn lands a PRNG-chosen sector prefix of the cut write; when false
	// the cut write is dropped whole.
	Torn bool

	// DropInFlight loses every write whose modeled completion time lies
	// after the cut instant (the unsynced queue window). When false, every
	// submitted write before the cut survives — the pure prefix model.
	DropInFlight bool

	// RotOffsets lists byte offsets whose reads come back with a flipped
	// bit. Rot persists across Reopen: it models media decay, not queue
	// state.
	RotOffsets []int64
}

func (p Plan) String() string {
	return fmt.Sprintf("seed=%d cut=%d window=[%d,%d) torn=%v dropInFlight=%v rot=%d",
		p.Seed, p.CutAtSubmit, p.CutOffLo, p.CutOffHi, p.Torn, p.DropInFlight, len(p.RotOffsets))
}

// pendingWrite is one submitted-but-not-yet-settled write: enough to undo
// it (pre) or to know it survived (done vs. the cut instant).
type pendingWrite struct {
	off  int64
	pre  []byte
	done time.Duration
}

// Dev is the fault-injecting device. Like the device it wraps, it serves one
// caller at a time.
type Dev struct {
	inner Inner
	clk   clock.Clock
	tr    *trace.Tracer
	fl    *flight.Recorder

	plan    Plan
	rng     *rand.Rand
	submits int64
	crashed bool
	cutAt   int64 // submit index of the crash, for error messages
	pending []pendingWrite

	// crashLog accumulates the fault events themselves (cut, rollbacks,
	// tearing). These can never appear in the store-persisted flight ring —
	// the checkpoint they interrupt by definition never commits — so the
	// device keeps them across Reopen, the way the black box of a crashed
	// machine outlives the machine. A recovered forensic timeline is the
	// persisted ring followed by this log.
	crashLog []flight.Event
}

// New wraps inner with the given fault plan. Pass CutAtSubmit: -1 for a
// wrapper that never crashes (arm one later with Arm).
func New(inner Inner, clk clock.Clock, plan Plan) *Dev {
	d := &Dev{inner: inner, clk: clk}
	d.Arm(plan)
	return d
}

// Arm replaces the fault plan mid-run (resetting the PRNG to the new
// seed). The submit counter keeps counting — CutAtSubmit is always an
// absolute index.
func (d *Dev) Arm(plan Plan) {
	d.plan = plan
	d.rng = rand.New(rand.NewSource(plan.Seed))
}

// Submits returns how many writes have been counted so far. A sweep
// records this after a fault-free run to learn the crash-index space.
func (d *Dev) Submits() int64 { return d.submits }

// Crashed reports whether the device is currently dead.
func (d *Dev) Crashed() bool { return d.crashed }

// Plan returns the currently armed plan.
func (d *Dev) Plan() Plan { return d.plan }

// Inner returns the wrapped device, for stats or raw inspection.
func (d *Dev) Inner() Inner { return d.inner }

// SetTracer attaches tr; nil disables. Fault events (the cut, rollbacks,
// tearing) land on the fault track, so a failing crash sweep replayed with
// a tracer dumps the exact timeline that led to the cut.
func (d *Dev) SetTracer(tr *trace.Tracer) { d.tr = tr }

// SetFlight attaches the flight recorder; nil disables it. Fault events
// are additionally kept in the device-resident crash log (see CrashLog),
// which survives Reopen the way the recorder — rebuilt per boot — cannot.
func (d *Dev) SetFlight(fl *flight.Recorder) { d.fl = fl }

// CrashLog returns the fault events recorded by every crash so far,
// oldest-first. It persists across Reopen: media survives a power cut even
// though the in-memory recorder does not.
func (d *Dev) CrashLog() []flight.Event { return append([]flight.Event(nil), d.crashLog...) }

// logEvent records a fault event into both the live flight ring and the
// persistent crash log.
func (d *Dev) logEvent(kind flight.Kind, a, b, c int64, detail string) {
	ev := flight.Event{At: int64(d.clk.Now()), Kind: kind, A: a, B: b, C: c, Detail: detail}
	d.fl.Record(ev.At, ev.Kind, ev.A, ev.B, ev.C, ev.Detail)
	d.crashLog = append(d.crashLog, ev)
}

// Reopen models plugging the machine back in: the device serves IO again
// with whatever bytes survived the cut. The crash triggers disarm (rot
// persists — it is a media property), and the submit counter keeps its
// value so indexes stay comparable across the crash.
func (d *Dev) Reopen() {
	d.crashed = false
	d.pending = nil
	d.plan.CutAtSubmit = -1
	d.plan.CutOffLo, d.plan.CutOffHi = 0, 0
}

// Size reports the capacity; it survives the crash (the media is intact,
// the controller is just dead).
func (d *Dev) Size() int64 { return d.inner.Size() }

func (d *Dev) deadErr() error {
	return fmt.Errorf("%w (seed %d, submit %d)", ErrPowerCut, d.plan.Seed, d.cutAt)
}

// settle prunes pending writes whose transfer completed by virtual
// time now: they are durable and can no longer be lost.
func (d *Dev) settle(now time.Duration) {
	kept := d.pending[:0]
	for _, pw := range d.pending {
		if pw.done > now {
			kept = append(kept, pw)
		}
	}
	d.pending = kept
}

func (d *Dev) triggered(idx, off, total int64) bool {
	if d.plan.CutAtSubmit >= 0 && idx >= d.plan.CutAtSubmit {
		return true
	}
	if d.plan.CutOffHi > d.plan.CutOffLo && off < d.plan.CutOffHi && off+total > d.plan.CutOffLo {
		return true
	}
	return false
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func flatten(vec [][]byte, n int64) []byte {
	out := make([]byte, 0, n)
	for _, b := range vec {
		out = append(out, b...)
	}
	return out
}

// crash kills the device at submit idx, whose payload is vec@off.
// after is the cut write's ordering constraint (0 for plain submits).
func (d *Dev) crash(idx int64, vec [][]byte, off, total int64, after time.Duration) error {
	now := d.clk.Now()
	// Writes that finished by the cut instant are on the media for good.
	d.settle(now)
	if d.tr != nil {
		d.tr.Instant(trace.TrackFault, "powercut",
			trace.I("seed", d.plan.Seed), trace.I("submit", idx),
			trace.I("off", off), trace.I("bytes", total),
			trace.I("torn", boolInt(d.plan.Torn)),
			trace.I("pending", int64(len(d.pending))))
	}
	d.logEvent(flight.EvPowerCut, idx, off, total,
		fmt.Sprintf("seed=%d torn=%v pending=%d", d.plan.Seed, d.plan.Torn, len(d.pending)))
	if d.plan.DropInFlight {
		// The rest were still in member queues: power loss drops them.
		// Pre-images are rolled back newest-first so overlapping writes
		// unwind correctly.
		for i := len(d.pending) - 1; i >= 0; i-- {
			d.inner.PokeAt(d.pending[i].pre, d.pending[i].off)
			if d.tr != nil {
				d.tr.Instant(trace.TrackFault, "rollback",
					trace.I("off", d.pending[i].off),
					trace.I("bytes", int64(len(d.pending[i].pre))))
			}
			d.logEvent(flight.EvRollback, d.pending[i].off, int64(len(d.pending[i].pre)), 0, "")
		}
		if after > now {
			// An ordered submit whose constraint lies past the cut instant
			// has, by the device's own guarantee, not started its transfer:
			// it lands nothing, torn or not. (Under the prefix model the
			// cut instant is "after the queue drained", so tearing applies.)
			total = 0
		}
	}
	d.pending = nil
	// The cut write itself lands a sector prefix when tearing is armed,
	// nothing otherwise. The prefix length is the only PRNG draw in a
	// run, so replay is exact.
	if d.plan.Torn && total > 0 {
		units := (total + TearSector - 1) / TearSector
		landed := d.rng.Int63n(units+1) * TearSector
		if landed > total {
			landed = total
		}
		if landed > 0 {
			d.inner.PokeAt(flatten(vec, total)[:landed], off)
		}
		if d.tr != nil {
			d.tr.Instant(trace.TrackFault, "torn",
				trace.I("off", off), trace.I("landed", landed), trace.I("of", total))
		}
		d.logEvent(flight.EvTornWrite, off, landed, total, "")
	}
	d.crashed = true
	d.cutAt = idx
	return fmt.Errorf("%w (seed %d, submit %d, off %#x, %d bytes)",
		ErrPowerCut, d.plan.Seed, idx, off, total)
}

// Submit queues a counted asynchronous write — one submit index for the
// whole vector, mirroring the one-command semantics of the inner device,
// and carrying its ordering constraint through. Commit-point writes
// (superblocks, WAL frames) are submit indexes like any other, so the sweep
// crashes on (and tears) them too. Unless it is the cut, the write's
// pre-image is captured and it stays pending until its completion time
// passes.
func (d *Dev) Submit(vec [][]byte, off int64, after time.Duration) (time.Duration, error) {
	if d.crashed {
		return 0, d.deadErr()
	}
	var total int64
	for _, b := range vec {
		total += int64(len(b))
	}
	if off < 0 || off+total > d.inner.Size() {
		// Delegate so the caller sees the inner device's error; rejected
		// writes are not counted and cannot trigger the cut.
		return d.inner.Submit(vec, off, 0)
	}
	idx := d.submits
	d.submits++
	if d.triggered(idx, off, total) {
		return 0, d.crash(idx, vec, off, total, after)
	}
	pre := make([]byte, total)
	d.inner.PeekAt(pre, off)
	done, err := d.inner.Submit(vec, off, after)
	if err != nil {
		return 0, err
	}
	if done > d.clk.Now() {
		d.pending = append(d.pending, pendingWrite{off: off, pre: pre, done: done})
	}
	d.settle(d.clk.Now())
	return done, nil
}

// rotApply flips one bit in every armed rot offset that falls inside the
// read. The same offset rots identically on every read — decay, not noise.
func (d *Dev) rotApply(p []byte, off int64) {
	for _, r := range d.plan.RotOffsets {
		if r >= off && r < off+int64(len(p)) {
			p[r-off] ^= 0x40
		}
	}
}

// ReadAt reads through to the inner device, applying bit-rot.
func (d *Dev) ReadAt(p []byte, off int64) (int, error) {
	if d.crashed {
		return 0, d.deadErr()
	}
	n, err := d.inner.ReadAt(p, off)
	if err == nil {
		d.rotApply(p[:n], off)
	}
	return n, err
}

// SubmitRead queues a read through to the inner device, applying bit-rot.
func (d *Dev) SubmitRead(p []byte, off int64) (time.Duration, error) {
	if d.crashed {
		return 0, d.deadErr()
	}
	done, err := d.inner.SubmitRead(p, off)
	if err == nil {
		d.rotApply(p, off)
	}
	return done, err
}

// WaitUntil blocks (in virtual time) until t, settling writes that
// completed by then. A dead device ignores it: there is nothing to wait
// for and no one to charge.
func (d *Dev) WaitUntil(t time.Duration) {
	if d.crashed {
		return
	}
	d.inner.WaitUntil(t)
	d.settle(d.clk.Now())
}

// PeekAt passes through to the raw media — it sees the true bits, rot and
// all faults notwithstanding, and works even on a dead device.
func (d *Dev) PeekAt(p []byte, off int64) { d.inner.PeekAt(p, off) }

// PokeAt passes through to the raw media.
func (d *Dev) PokeAt(p []byte, off int64) { d.inner.PokeAt(p, off) }

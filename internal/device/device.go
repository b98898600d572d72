// Package device simulates the storage hardware of the paper's testbed:
// Intel Optane 900P PCIe NVMe devices, four of which are striped at 64 KiB.
//
// A Stripe is the device. Its members store bytes for real (reads return what
// was written, across simulated crashes) and charge transfer time to a
// virtual clock using the calibrated latency + size/bandwidth model. Submit is
// the one write command: the device pipelines the transfer and reports a
// virtual completion time, and a caller that needs durability waits for it
// (WaitUntil), which is how checkpoint flushing overlaps execution. ReadAt is
// the one synchronous command. New builds a lone device: a stripe of one
// member whose unit is the whole device, so every IO is one member command.
package device

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"aurora/internal/clock"
	"aurora/internal/flight"
	"aurora/internal/radix"
	"aurora/internal/trace"
)

// ChunkSize is the granularity of the sparse backing store.
const ChunkSize = 64 << 10

// ErrOutOfRange is returned for IO beyond the device size.
var ErrOutOfRange = errors.New("device: IO out of range")

// Stats counts traffic through a device: one read or write per member
// command.
type Stats struct {
	Reads        int64
	Writes       int64
	BytesRead    int64
	BytesWritten int64
}

// member is one simulated NVMe namespace of a stripe: the bytes, the queue
// model and the traffic counters. It has no clock of its own; the stripe
// charges whoever issued the command.
type member struct {
	costs *clock.Costs

	size     int64
	chunks   radix.Table[[]byte] // chunk index -> ChunkSize bytes
	nextFree time.Duration       // virtual time at which the queue drains
	stats    Stats
}

func newMember(costs *clock.Costs, size int64) *member {
	if size <= 0 {
		panic("device: non-positive size")
	}
	return &member{costs: costs, size: size}
}

// traceSubmit records one queued command on the device track. now is the
// submitting thread's virtual time, start/done come from the queue model,
// and stall is extra delay imposed by an ordering constraint. qwait doubles
// as the queue-depth signal: in the continuous queue model the backlog is
// measured in time, not slots.
func traceSubmit(tr *trace.Tracer, name string, now, start, done, stall time.Duration, n, off int64) {
	tr.Range(trace.TrackDevice, name, start, done,
		trace.I("bytes", n), trace.I("off", off))
	tr.Observe("dev.qwait.ns", int64(start-now))
	tr.Observe("dev.settle.ns", int64(done-now))
	tr.Count("dev.submits", 1)
	tr.Count("dev.bytes", n)
	if stall > 0 {
		tr.Observe("dev.order_stall.ns", int64(stall))
		tr.Count("dev.order_stalls", 1)
	}
}

func vecLen(bufs [][]byte) int64 {
	var total int64
	for _, b := range bufs {
		total += int64(len(b))
	}
	return total
}

// writeName is the trace name of a write submit, a function of its shape
// alone: vectored when the caller passed more than one buffer, ordered when
// it passed a constraint.
func writeName(nbufs int, after time.Duration) string {
	switch {
	case nbufs > 1 && after > 0:
		return "dev.writev_after"
	case nbufs > 1:
		return "dev.writev"
	case after > 0:
		return "dev.write_after"
	default:
		return "dev.write"
	}
}

// write lands vec at off as one queued command of size bytes. clk and tr
// belong to whoever issued the command.
func (d *member) write(clk clock.Clock, tr *trace.Tracer, name string, vec [][]byte, off, size int64, after time.Duration) time.Duration {
	// Occupancy accrues per payload slice so a vectored submit charges the
	// queue exactly what the equivalent single-buffer sequence would.
	var occupancy time.Duration
	for _, b := range vec {
		occupancy += clock.XferTime(0, d.costs.DevWriteBps, int64(len(b)))
	}
	o := off
	for _, b := range vec {
		d.pokeAt(b, o)
		o += int64(len(b))
	}
	d.stats.Writes++
	d.stats.BytesWritten += size
	return d.enqueue(clk, tr, name, off, size, occupancy, d.costs.DevWriteLatency, after)
}

// read is write's counterpart for one queued read command.
func (d *member) read(clk clock.Clock, tr *trace.Tracer, p []byte, off int64) time.Duration {
	occupancy := clock.XferTime(0, d.costs.DevReadBps, int64(len(p)))
	d.readAt(p, off)
	return d.enqueue(clk, tr, "dev.read", off, int64(len(p)), occupancy, d.costs.DevReadLatency, 0)
}

// enqueue is the queue model, written once: a command of n bytes enters the
// queue when the device is next free (or now, or after — whichever is
// latest), holds it for occupancy, and completes latency later.
func (d *member) enqueue(clk clock.Clock, tr *trace.Tracer, name string, off, n int64, occupancy, latency, after time.Duration) time.Duration {
	now := clk.Now()
	start := d.nextFree
	if now > start {
		start = now
	}
	var stall time.Duration
	if after > start {
		stall = after - start
		start = after
	}
	d.nextFree = start + occupancy
	done := d.nextFree + latency
	if tr != nil {
		traceSubmit(tr, name, now, start, done, stall, n, off)
	}
	return done
}

// readAt moves p at off and counts the read. read queues it as a command;
// for the stripe's synchronous ReadAt the stripe charges the time.
func (d *member) readAt(p []byte, off int64) {
	d.peekAt(p, off)
	d.stats.Reads++
	d.stats.BytesRead += int64(len(p))
}

// pokeAt and peekAt move p at off with no command: nothing is charged or
// counted.
func (d *member) pokeAt(p []byte, off int64) {
	for len(p) > 0 {
		ci := off / ChunkSize
		co := off % ChunkSize
		chunk, ok := d.chunks.Get(ci)
		if !ok {
			chunk = make([]byte, ChunkSize)
			d.chunks.Set(ci, chunk)
		}
		n := copy(chunk[co:], p)
		p = p[n:]
		off += int64(n)
	}
}

func (d *member) peekAt(p []byte, off int64) {
	for len(p) > 0 {
		ci := off / ChunkSize
		co := off % ChunkSize
		var n int
		if chunk, ok := d.chunks.Get(ci); ok {
			n = copy(p, chunk[co:])
		} else {
			n = int(min(ChunkSize-co, int64(len(p))))
			clear(p[:n])
		}
		p = p[n:]
		off += int64(n)
	}
}

// Stripe is a RAID-0 stripe set over several members, matching the paper's
// four Optanes striped at 64 KiB. IO is split at stripe-unit boundaries and
// the member transfers proceed in parallel: a synchronous operation charges
// the maximum member time, not the sum.
//
// IO of zero bytes, synchronous or queued, touches no member: it issues no
// command, charges nothing and counts nothing.
type Stripe struct {
	clk   clock.Clock
	costs *clock.Costs
	tr    *trace.Tracer
	fl    *flight.Recorder
	devs  []*member
	unit  int64
}

// SetTracer attaches tr to the stripe; nil disables tracing. Wire it at
// build time — it is not synchronized against in-flight IO.
func (s *Stripe) SetTracer(tr *trace.Tracer) { s.tr = tr }

// SetFlight attaches the flight recorder; nil disables it. Only ordered
// submissions (Submit with a real barrier) are recorded, one event per
// stripe-level call rather than per member transfer: those are the commit
// points — superblock writes — and they arrive from the single-threaded
// commit path, keeping the ring deterministic. Recording every data submit
// would flood the ring.
func (s *Stripe) SetFlight(fl *flight.Recorder) { s.fl = fl }

// New returns a lone device of the given size charging IO to clk: a stripe
// of one member whose unit is the whole device.
func New(clk clock.Clock, costs *clock.Costs, size int64) *Stripe {
	return NewStripe(clk, costs, 1, size, size)
}

// NewStripe builds a stripe set of n fresh members of perDevSize bytes each.
func NewStripe(clk clock.Clock, costs *clock.Costs, n int, unit, perDevSize int64) *Stripe {
	if n <= 0 || unit <= 0 {
		panic("device: bad stripe geometry")
	}
	s := &Stripe{clk: clk, costs: costs, unit: unit}
	for i := 0; i < n; i++ {
		s.devs = append(s.devs, newMember(costs, perDevSize))
	}
	return s
}

// Size returns the aggregate capacity.
func (s *Stripe) Size() int64 { return int64(len(s.devs)) * s.devs[0].size }

// Stats sums the member counters.
func (s *Stripe) Stats() Stats {
	var out Stats
	for _, d := range s.devs {
		st := d.stats
		out.Reads += st.Reads
		out.Writes += st.Writes
		out.BytesRead += st.BytesRead
		out.BytesWritten += st.BytesWritten
	}
	return out
}

// each hands fn the stripe-unit runs of p at off in order, each with the
// index of its member and its offset there.
func (s *Stripe) each(p []byte, off int64, fn func(m int, p []byte, off int64)) {
	n := int64(len(s.devs))
	for len(p) > 0 {
		blk, in := off/s.unit, off%s.unit
		run := min(s.unit-in, int64(len(p)))
		fn(int(blk%n), p[:run], blk/n*s.unit+in)
		p = p[run:]
		off += run
	}
}

func (s *Stripe) check(n int, off int64) error {
	if off < 0 || off+int64(n) > s.Size() {
		return fmt.Errorf("%w: [%d,%d) size %d", ErrOutOfRange, off, off+int64(n), s.Size())
	}
	return nil
}

// ReadAt is the device's one synchronous command: every member moves its
// runs, and the caller's clock advances by one command latency plus the
// busiest member's bandwidth time. It does not queue behind write-behind:
// the members' queues neither delay it nor see it, so a reader that must
// wait for queued writes waits for their completion first.
func (s *Stripe) ReadAt(p []byte, off int64) (int, error) {
	if err := s.check(len(p), off); err != nil {
		return 0, err
	}
	perDev := make([]int64, len(s.devs))
	s.each(p, off, func(m int, p []byte, off int64) {
		s.devs[m].readAt(p, off)
		perDev[m] += int64(len(p))
	})
	if worst := slices.Max(perDev); worst > 0 {
		s.clk.Advance(clock.XferTime(s.costs.DevReadLatency, s.costs.DevReadBps, worst))
	}
	return len(p), nil
}

// Submit queues the concatenation of bufs at off as one asynchronous write
// whose transfer may not begin before virtual time after (0 for none). It
// is the device's one write command: one command per member, one queue
// occupancy for its total size, the fixed latency added once. The data is
// immediately visible to reads (the simulation has no volatile write cache
// to lose) but the returned virtual time is when the transfer is durable;
// callers that need durability must WaitUntil it.
//
// Queued writes pipeline the way NVMe queue depth allows: each transfer
// occupies the device for its bandwidth time only, and the fixed command
// latency is added once at the end, overlapping the next transfer. Sustained
// submission therefore approaches device bandwidth instead of serializing on
// per-command latency.
//
// after models a completion-ordered submission: a commit record issued from
// the completion callback of its dependencies, enforcing write ordering at
// the device without blocking the submitting thread's clock. It is the only
// ordering primitive the device offers — there is no FUA bit, and plain
// submits may complete in any order across queue members.
//
// Each stripe-unit extent becomes one member command carrying all the
// payload slices that fall inside it, so a batch of page writes costs one
// member command per 64 KiB instead of one per page. The
// virtual-time outcome is identical to submitting the pages one by one:
// member queue occupancy accrues by total bytes either way.
//
// Zero-length payload slices are legal and contribute nothing; a vector with
// no bytes at all completes now without issuing a command. A vector that
// would run past the device end fails whole: no bytes land and neither the
// queue model nor the traffic counters move.
func (s *Stripe) Submit(bufs [][]byte, off int64, after time.Duration) (time.Duration, error) {
	total := vecLen(bufs)
	if err := s.check(int(total), off); err != nil {
		return 0, err
	}
	if total == 0 {
		return s.clk.Now(), nil
	}
	name := writeName(len(bufs), after)
	var done time.Duration
	var scratch [16][]byte // a unit of page-sized slices; longer vectors spill to the heap
	bi, bo := 0, 0         // position in bufs of the next unconsumed byte
	for o, rem := off, total; rem > 0; {
		blk := o / s.unit
		in := o % s.unit
		run := min(s.unit-in, rem)
		vec := scratch[:0]
		for need := run; need > 0; {
			b := bufs[bi][bo:]
			if int64(len(b)) > need {
				b = b[:need]
			}
			vec = append(vec, b)
			bo += len(b)
			need -= int64(len(b))
			if bo == len(bufs[bi]) {
				bi++
				bo = 0
			}
		}
		d := s.devs[blk%int64(len(s.devs))]
		done = max(done, d.write(s.clk, s.tr, name, vec, blk/int64(len(s.devs))*s.unit+in, run, after))
		o += run
		rem -= run
	}
	if after > 0 {
		s.fl.Record(int64(s.clk.Now()), flight.EvDevWrite, off, total, int64(after), "")
	}
	return done, nil
}

// SubmitWrite is Submit for one unordered buffer.
func (s *Stripe) SubmitWrite(p []byte, off int64) (time.Duration, error) {
	v := [1][]byte{p} // stays on the stack: Submit does not retain bufs
	return s.Submit(v[:], off, 0)
}

// SubmitWritev is Submit without an ordering constraint.
func (s *Stripe) SubmitWritev(bufs [][]byte, off int64) (time.Duration, error) {
	return s.Submit(bufs, off, 0)
}

// SubmitRead queues a read: data is returned immediately but the virtual
// completion time reflects queued bandwidth, so batched readers (restore,
// prefetch) pay pipelined bandwidth rather than per-command latency.
func (s *Stripe) SubmitRead(p []byte, off int64) (time.Duration, error) {
	if err := s.check(len(p), off); err != nil {
		return 0, err
	}
	var done time.Duration
	s.each(p, off, func(m int, p []byte, off int64) {
		done = max(done, s.devs[m].read(s.clk, s.tr, p, off))
	})
	return done, nil
}

// PeekAt copies device contents at off into p without charging transfer
// time or touching the traffic counters. It is a debug/tooling port — fault
// injectors use it to capture pre-images and test harnesses use it to
// compare raw media — and must never appear on a simulated IO path.
func (s *Stripe) PeekAt(p []byte, off int64) {
	if err := s.check(len(p), off); err != nil {
		panic(err)
	}
	s.each(p, off, func(m int, p []byte, off int64) { s.devs[m].peekAt(p, off) })
}

// PokeAt overwrites device contents at off with p, bypassing the timing
// model and the traffic counters. Fault injectors use it to tear writes and
// roll back dropped ones; tests use it to corrupt media under fsck.
func (s *Stripe) PokeAt(p []byte, off int64) {
	if err := s.check(len(p), off); err != nil {
		panic(err)
	}
	s.each(p, off, func(m int, p []byte, off int64) { s.devs[m].pokeAt(p, off) })
}

// WaitUntil advances the caller's clock to virtual time t if t is in the
// future; it models blocking on an IO completion.
func (s *Stripe) WaitUntil(t time.Duration) {
	if now := s.clk.Now(); t > now {
		s.clk.Advance(t - now)
	}
}

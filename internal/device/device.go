// Package device simulates the storage hardware of the paper's testbed:
// Intel Optane 900P PCIe NVMe devices, four of which are striped at 64 KiB.
//
// A Device stores bytes for real (reads return what was written, across
// simulated crashes) and charges transfer time to a virtual clock using the
// calibrated latency + size/bandwidth model. Writes may be issued
// synchronously (the caller's clock advances by the transfer time) or
// asynchronously (the device pipelines the transfer and reports a virtual
// completion time), which is how checkpoint flushing overlaps execution.
package device

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"aurora/internal/clock"
	"aurora/internal/flight"
	"aurora/internal/trace"
)

// ChunkSize is the granularity of the sparse backing store.
const ChunkSize = 64 << 10

// ErrOutOfRange is returned for IO beyond the device size.
var ErrOutOfRange = errors.New("device: IO out of range")

// Stats counts traffic through a device.
type Stats struct {
	Reads        int64
	Writes       int64
	BytesRead    int64
	BytesWritten int64
	Flushes      int64
}

// Device is one simulated NVMe namespace.
type Device struct {
	clk   clock.Clock
	costs *clock.Costs
	tr    *trace.Tracer
	fl    *flight.Recorder

	mu       sync.Mutex
	size     int64
	chunks   map[int64][]byte // chunk index -> ChunkSize bytes
	nextFree time.Duration    // virtual time at which the queue drains
	stats    Stats
}

// New returns a device of the given size charging IO to clk.
func New(clk clock.Clock, costs *clock.Costs, size int64) *Device {
	if size <= 0 {
		panic("device: non-positive size")
	}
	return &Device{clk: clk, costs: costs, size: size, chunks: make(map[int64][]byte)}
}

// Size returns the device capacity in bytes.
func (d *Device) Size() int64 { return d.size }

// Stats returns a snapshot of the traffic counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// SetTracer attaches tr to the device; nil disables tracing. Wire it at
// build time — it is not synchronized against in-flight IO.
func (d *Device) SetTracer(tr *trace.Tracer) { d.tr = tr }

// SetFlight attaches the flight recorder; nil disables it. Only ordered
// submissions (Submit with a real barrier) are recorded: those
// are the commit points — superblock writes — and they arrive from the
// single-threaded commit path, keeping the ring deterministic. Recording
// every data submit would flood the ring and, under a parallel flush,
// interleave nondeterministically.
func (d *Device) SetFlight(fl *flight.Recorder) { d.fl = fl }

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

func (d *Device) check(n int, off int64) error {
	if off < 0 || off+int64(n) > d.size {
		return fmt.Errorf("%w: [%d,%d) size %d", ErrOutOfRange, off, off+int64(n), d.size)
	}
	return nil
}

// ReadAt reads into p from off, charging read transfer time.
func (d *Device) ReadAt(p []byte, off int64) (int, error) {
	if err := d.check(len(p), off); err != nil {
		return 0, err
	}
	d.mu.Lock()
	d.copyOut(p, off)
	d.stats.Reads++
	d.stats.BytesRead += int64(len(p))
	d.mu.Unlock()
	d.clk.Advance(clock.XferTime(d.costs.DevReadLatency, d.costs.DevReadBps, int64(len(p))))
	return len(p), nil
}

// WriteAt writes p at off synchronously: the caller's virtual clock advances
// by the full transfer time and the data is durable on return.
func (d *Device) WriteAt(p []byte, off int64) (int, error) {
	if err := d.check(len(p), off); err != nil {
		return 0, err
	}
	d.mu.Lock()
	d.copyIn(p, off)
	d.stats.Writes++
	d.stats.BytesWritten += int64(len(p))
	d.mu.Unlock()
	d.clk.Advance(clock.XferTime(d.costs.DevWriteLatency, d.costs.DevWriteBps, int64(len(p))))
	return len(p), nil
}

// Submit queues the concatenation of bufs at off as one asynchronous write
// whose transfer may not begin before virtual time after (0 for none). It
// is the device's single write primitive: one command, one queue occupancy
// for the total size, the fixed latency added once. The data is immediately
// visible to reads (the simulation has no volatile write cache to lose) but
// the returned virtual time is when the transfer is durable; callers that
// need durability must WaitUntil it.
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
// Zero-length payload slices are legal and contribute nothing; a vector with
// no bytes at all is a no-op that completes immediately without issuing a
// command. A vector that would run past the device end fails whole: no bytes
// land and neither the queue model nor the traffic counters move.
func (d *Device) Submit(bufs [][]byte, off int64, after time.Duration) (time.Duration, error) {
	total := vecLen(bufs)
	if err := d.check(int(total), off); err != nil {
		return 0, err
	}
	if total == 0 {
		return d.clk.Now(), nil
	}
	done, err := d.write(d.clk, d.tr, writeName(len(bufs), after), bufs, off, total, after)
	if err == nil && after > 0 {
		d.fl.Record(int64(d.clk.Now()), flight.EvDevWrite, off, total, int64(after), "")
	}
	return done, err
}

// SubmitWrite is Submit for one unordered buffer.
func (d *Device) SubmitWrite(p []byte, off int64) (time.Duration, error) {
	v := [1][]byte{p} // stays on the stack: Submit does not retain bufs
	return d.Submit(v[:], off, 0)
}

// SubmitRead queues a read: data is returned immediately but the virtual
// completion time reflects queued bandwidth, so batched readers (restore,
// prefetch) pay pipelined bandwidth rather than per-command latency.
func (d *Device) SubmitRead(p []byte, off int64) (time.Duration, error) {
	return d.read(d.clk, d.tr, p, off)
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

// write lands vec at off as one command of size bytes and queues it. clk and
// tr belong to whoever issued the command: the device itself, or the stripe
// this device is a member of (members run on a discard clock).
func (d *Device) write(clk clock.Clock, tr *trace.Tracer, name string, vec [][]byte, off, size int64, after time.Duration) (time.Duration, error) {
	// Occupancy accrues per payload slice so a vectored submit charges the
	// queue exactly what the equivalent single-buffer sequence would.
	var occupancy time.Duration
	for _, b := range vec {
		occupancy += clock.XferTime(0, d.costs.DevWriteBps, int64(len(b)))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(int(size), off); err != nil {
		return 0, err
	}
	o := off
	for _, b := range vec {
		d.copyIn(b, o)
		o += int64(len(b))
	}
	d.stats.Writes++
	d.stats.BytesWritten += size
	return d.enqueue(clk, tr, name, off, size, occupancy, d.costs.DevWriteLatency, after), nil
}

// read is write's counterpart for one queued read command.
func (d *Device) read(clk clock.Clock, tr *trace.Tracer, p []byte, off int64) (time.Duration, error) {
	occupancy := clock.XferTime(0, d.costs.DevReadBps, int64(len(p)))
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(len(p), off); err != nil {
		return 0, err
	}
	d.copyOut(p, off)
	d.stats.Reads++
	d.stats.BytesRead += int64(len(p))
	return d.enqueue(clk, tr, "dev.read", off, int64(len(p)), occupancy, d.costs.DevReadLatency, 0), nil
}

// enqueue is the queue model, written once: a command of n bytes enters the
// queue when the device is next free (or now, or after — whichever is
// latest), holds it for occupancy, and completes latency later. Requires
// d.mu.
func (d *Device) enqueue(clk clock.Clock, tr *trace.Tracer, name string, off, n int64, occupancy, latency, after time.Duration) time.Duration {
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

// WaitUntil advances the caller's clock to virtual time t if t is in the
// future; it models blocking on an IO completion.
func (d *Device) WaitUntil(t time.Duration) {
	if now := d.clk.Now(); t > now {
		d.clk.Advance(t - now)
	}
}

// Flush waits for all queued writes to drain and become durable.
func (d *Device) Flush() {
	d.mu.Lock()
	t := d.nextFree
	if t > 0 {
		t += d.costs.DevWriteLatency
	}
	d.stats.Flushes++
	d.mu.Unlock()
	d.WaitUntil(t)
}

// PeekAt copies device contents at off into p without charging transfer
// time or touching the traffic counters. It is a debug/tooling port — fault
// injectors use it to capture pre-images and test harnesses use it to
// compare raw media — and must never appear on a simulated IO path.
func (d *Device) PeekAt(p []byte, off int64) {
	if err := d.check(len(p), off); err != nil {
		panic(err)
	}
	d.mu.Lock()
	d.copyOut(p, off)
	d.mu.Unlock()
}

// PokeAt overwrites device contents at off with p, bypassing the timing
// model and the traffic counters. Fault injectors use it to tear writes and
// roll back dropped ones; tests use it to corrupt media under fsck.
func (d *Device) PokeAt(p []byte, off int64) {
	if err := d.check(len(p), off); err != nil {
		panic(err)
	}
	d.mu.Lock()
	d.copyIn(p, off)
	d.mu.Unlock()
}

// copyIn requires d.mu.
func (d *Device) copyIn(p []byte, off int64) {
	for len(p) > 0 {
		ci := off / ChunkSize
		co := off % ChunkSize
		chunk, ok := d.chunks[ci]
		if !ok {
			chunk = make([]byte, ChunkSize)
			d.chunks[ci] = chunk
		}
		n := copy(chunk[co:], p)
		p = p[n:]
		off += int64(n)
	}
}

// copyOut requires d.mu.
func (d *Device) copyOut(p []byte, off int64) {
	for len(p) > 0 {
		ci := off / ChunkSize
		co := off % ChunkSize
		var n int
		if chunk, ok := d.chunks[ci]; ok {
			n = copy(p, chunk[co:])
		} else {
			end := ChunkSize - co
			if end > int64(len(p)) {
				end = int64(len(p))
			}
			for i := int64(0); i < end; i++ {
				p[i] = 0
			}
			n = int(end)
		}
		p = p[n:]
		off += int64(n)
	}
}

// Stripe is a RAID-0 stripe set over several devices, matching the paper's
// four Optanes striped at 64 KiB. IO is split at stripe-unit boundaries and
// the member transfers proceed in parallel: a synchronous operation charges
// the maximum member time, not the sum.
type Stripe struct {
	clk   clock.Clock
	costs *clock.Costs
	tr    *trace.Tracer
	fl    *flight.Recorder
	devs  []*Device
	unit  int64
}

// SetTracer attaches tr to the stripe; nil disables tracing. Member-device
// submits issued through the stripe are recorded with their member index.
func (s *Stripe) SetTracer(tr *trace.Tracer) { s.tr = tr }

// SetFlight attaches the flight recorder; nil disables it. Like
// Device.SetFlight, only ordered (barrier) submissions are recorded, one
// event per stripe-level call rather than per member transfer.
func (s *Stripe) SetFlight(fl *flight.Recorder) { s.fl = fl }

// NewStripe builds a stripe set of n fresh devices of perDevSize bytes each.
func NewStripe(clk clock.Clock, costs *clock.Costs, n int, unit, perDevSize int64) *Stripe {
	if n <= 0 || unit <= 0 {
		panic("device: bad stripe geometry")
	}
	s := &Stripe{clk: clk, costs: costs, unit: unit}
	for i := 0; i < n; i++ {
		// Members get a discard clock; the stripe charges the caller
		// with parallel (max) time itself.
		s.devs = append(s.devs, New(clock.Discard{}, costs, perDevSize))
	}
	return s
}

// Size returns the aggregate capacity.
func (s *Stripe) Size() int64 { return int64(len(s.devs)) * s.devs[0].Size() }

// Devices returns the number of member devices.
func (s *Stripe) Devices() int { return len(s.devs) }

// Stats sums the member device counters.
func (s *Stripe) Stats() Stats {
	var out Stats
	for _, d := range s.devs {
		st := d.Stats()
		out.Reads += st.Reads
		out.Writes += st.Writes
		out.BytesRead += st.BytesRead
		out.BytesWritten += st.BytesWritten
		out.Flushes += st.Flushes
	}
	return out
}

// extent is one member-local run of a striped IO.
type extent struct {
	dev  int
	off  int64
	p    []byte
	size int64
}

func (s *Stripe) split(p []byte, off int64) []extent {
	var out []extent
	for len(p) > 0 {
		blk := off / s.unit
		in := off % s.unit
		dev := int(blk % int64(len(s.devs)))
		devBlk := blk / int64(len(s.devs))
		run := s.unit - in
		if run > int64(len(p)) {
			run = int64(len(p))
		}
		out = append(out, extent{dev: dev, off: devBlk*s.unit + in, p: p[:run], size: run})
		p = p[run:]
		off += run
	}
	return out
}

func (s *Stripe) check(n int, off int64) error {
	if off < 0 || off+int64(n) > s.Size() {
		return fmt.Errorf("%w: [%d,%d) size %d", ErrOutOfRange, off, off+int64(n), s.Size())
	}
	return nil
}

// ReadAt reads across the stripe, charging the parallel (max-member) time.
func (s *Stripe) ReadAt(p []byte, off int64) (int, error) {
	if err := s.check(len(p), off); err != nil {
		return 0, err
	}
	perDev := make([]int64, len(s.devs))
	for _, e := range s.split(p, off) {
		if _, err := s.devs[e.dev].ReadAt(e.p, e.off); err != nil {
			return 0, err
		}
		perDev[e.dev] += e.size
	}
	s.clk.Advance(s.parallelTime(perDev, s.costs.DevReadLatency, s.costs.DevReadBps))
	return len(p), nil
}

// WriteAt writes across the stripe synchronously, charging the parallel time.
func (s *Stripe) WriteAt(p []byte, off int64) (int, error) {
	if err := s.check(len(p), off); err != nil {
		return 0, err
	}
	perDev := make([]int64, len(s.devs))
	for _, e := range s.split(p, off) {
		if _, err := s.devs[e.dev].WriteAt(e.p, e.off); err != nil {
			return 0, err
		}
		perDev[e.dev] += e.size
	}
	s.clk.Advance(s.parallelTime(perDev, s.costs.DevWriteLatency, s.costs.DevWriteBps))
	return len(p), nil
}

// Submit queues the concatenation of bufs across the stripe, its member
// transfers not beginning before virtual time after. See Device.Submit. Each
// stripe-unit extent becomes one member command carrying all the payload
// slices that fall inside it, so a batch of page writes costs one member
// lock round trip per 64 KiB instead of one per page. The virtual-time
// outcome is identical to submitting the pages one by one: member queue
// occupancy accrues by total bytes either way.
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
		run := s.unit - in
		if run > rem {
			run = rem
		}
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
		t, err := d.write(s.clk, s.tr, name, vec, blk/int64(len(s.devs))*s.unit+in, run, after)
		if err != nil {
			return 0, err
		}
		if t > done {
			done = t
		}
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

// SubmitRead queues a striped read, returning the completion time.
func (s *Stripe) SubmitRead(p []byte, off int64) (time.Duration, error) {
	if err := s.check(len(p), off); err != nil {
		return 0, err
	}
	var done time.Duration
	for _, e := range s.split(p, off) {
		t, err := s.devs[e.dev].read(s.clk, s.tr, e.p, e.off)
		if err != nil {
			return 0, err
		}
		if t > done {
			done = t
		}
	}
	return done, nil
}

// PeekAt copies stripe contents at off into p without charging transfer
// time or touching the traffic counters. See Device.PeekAt.
func (s *Stripe) PeekAt(p []byte, off int64) {
	if err := s.check(len(p), off); err != nil {
		panic(err)
	}
	for _, e := range s.split(p, off) {
		s.devs[e.dev].PeekAt(e.p, e.off)
	}
}

// PokeAt overwrites stripe contents at off with p, bypassing the timing
// model and the traffic counters. See Device.PokeAt.
func (s *Stripe) PokeAt(p []byte, off int64) {
	if err := s.check(len(p), off); err != nil {
		panic(err)
	}
	for _, e := range s.split(p, off) {
		s.devs[e.dev].PokeAt(e.p, e.off)
	}
}

// WaitUntil advances the stripe's clock to t if t is in the future.
func (s *Stripe) WaitUntil(t time.Duration) {
	if now := s.clk.Now(); t > now {
		s.clk.Advance(t - now)
	}
}

// Flush drains all member queues.
func (s *Stripe) Flush() {
	var max time.Duration
	for _, d := range s.devs {
		d.mu.Lock()
		if d.nextFree > max {
			max = d.nextFree
		}
		d.stats.Flushes++
		d.mu.Unlock()
	}
	if max > 0 {
		max += s.costs.DevWriteLatency
	}
	s.WaitUntil(max)
}

// parallelTime models n concurrent member transfers: one shared latency plus
// the longest member's bandwidth time.
func (s *Stripe) parallelTime(perDev []int64, lat time.Duration, bps int64) time.Duration {
	var worst int64
	any := false
	for _, n := range perDev {
		if n > 0 {
			any = true
		}
		if n > worst {
			worst = n
		}
	}
	if !any {
		return 0
	}
	return clock.XferTime(lat, bps, worst)
}

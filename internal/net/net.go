// Package net simulates the network between Aurora machines: the wire the
// §3 high-availability story ("sls send" continuously feeding a warm
// standby) actually has to cross. It supplies two layers:
//
//   - Link / Pipe (this file): a virtual-clock simulated wire with latency,
//     serialization bandwidth, and a deterministic seeded fault plan
//     injecting frame drop, duplication, reorder, corruption, and timed
//     partitions — faultdev's design applied to the network.
//   - Conn (proto.go): a framed, CRC-checked, selective-repeat replication
//     protocol with capped exponential backoff and epoch-granular resumable
//     transfers on top of a Pipe.
//
// Determinism contract, mirroring faultdev: a Plan (seed + per-transmission
// fault triggers + probabilistic rates) plus a deterministic sender replays
// the identical fault sequence byte-for-byte. The PRNG is consumed in a
// fixed pattern per transmission, so outcomes cannot perturb later draws,
// and all timing is virtual — the sending machine's clock drives the wire.
package net

import (
	"fmt"
	"math/rand"
	"time"

	"aurora/internal/clock"
	"aurora/internal/trace"
)

// Params describe one direction of a wire.
type Params struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// PerByte is the serialization cost per byte put on the wire.
	PerByte time.Duration
}

// DefaultParams models the paper's testbed interconnect (Intel x722 10 GbE,
// same rack) as the cost model states it: half the round trip one way, and
// the per-byte serialization.
func DefaultParams() Params {
	c := clock.DefaultCosts()
	return Params{Latency: c.NetRTT / 2, PerByte: c.NetPerByte}
}

// FaultKind is one class of injected wire fault.
type FaultKind uint8

// Fault kinds.
const (
	FaultNone FaultKind = iota
	FaultDrop
	FaultDup
	FaultReorder
	FaultCorrupt
	FaultPartition
)

// String names the kind for error messages and sweep labels.
func (k FaultKind) String() string {
	switch k {
	case FaultDrop:
		return "drop"
	case FaultDup:
		return "dup"
	case FaultReorder:
		return "reorder"
	case FaultCorrupt:
		return "corrupt"
	case FaultPartition:
		return "partition"
	}
	return "none"
}

// Fault arms one deterministic fault at a 0-based link transmission index.
// A FaultPartition kills the link for For starting at that transmission's
// instant (the triggering frame is lost); the other kinds ignore For.
type Fault struct {
	Xmit int64
	Kind FaultKind
	For  time.Duration
}

// Partition is a virtual-time window during which every transmission is
// lost — both new sends and nothing in between; frames already in flight
// still arrive (they are past the cable cut).
type Partition struct {
	From, Until time.Duration
}

// Plan describes one deterministic wire fault scenario. The zero Plan is a
// clean link.
type Plan struct {
	// Seed feeds the PRNG behind probabilistic faults and the
	// corrupted-byte choice.
	Seed int64

	// Per-transmission probabilistic fault rates in [0,1], drawn from one
	// PRNG value per transmission so a run replays exactly. They partition
	// the unit interval: at most one fires per frame.
	DropProb, DupProb, ReorderProb, CorruptProb float64

	// Faults lists deterministic per-transmission-index triggers; they take
	// precedence over the probabilistic rates for their index.
	Faults []Fault
}

// delivery is one frame in flight.
type delivery struct {
	data   []byte
	arrive time.Duration
}

// Link is one direction of a simulated wire. It is message-oriented: Send
// enqueues a discrete frame, Recv pops the earliest-arriving one, advancing
// the virtual clock to its arrival instant. Not safe for concurrent use —
// the replication protocol is a synchronous lockstep over virtual time.
type Link struct {
	clk      clock.Clock
	tr       *trace.Tracer
	params   Params
	plan     Plan
	rng      *rand.Rand
	xmits    int64
	inflight []delivery
	parts    []Partition        // triggered (fault- or Cut-armed) windows
	tap      func(frame []byte) // when set, sees every frame handed to Send
}

// NewLink builds one wire direction over clk.
func NewLink(clk clock.Clock, params Params, plan Plan) *Link {
	return &Link{
		clk:    clk,
		params: params,
		plan:   plan,
		rng:    rand.New(rand.NewSource(plan.Seed)),
	}
}

// SetTracer attaches tr; nil disables. Injected faults land on the net
// track so a failing sweep replayed with a tracer shows the exact wire
// history.
func (l *Link) SetTracer(tr *trace.Tracer) { l.tr = tr }

// Xmits returns how many frames have been handed to Send — the index space
// a deterministic fault sweep enumerates.
func (l *Link) Xmits() int64 { return l.xmits }

// AddPartition kills the link for d starting now (a cable pull mid-run).
func (l *Link) AddPartition(d time.Duration) {
	now := l.clk.Now()
	l.parts = append(l.parts, Partition{From: now, Until: now + d})
}

func (l *Link) partitioned(now time.Duration) bool {
	for _, p := range l.parts {
		if now >= p.From && now < p.Until {
			return true
		}
	}
	return false
}

// faultFor resolves the fault for transmission idx: an armed deterministic
// trigger wins; otherwise one PRNG draw p maps onto the probability bands.
func (l *Link) faultFor(idx int64, p float64) Fault {
	for _, f := range l.plan.Faults {
		if f.Xmit == idx {
			return f
		}
	}
	edge := l.plan.DropProb
	if p < edge {
		return Fault{Kind: FaultDrop}
	}
	edge += l.plan.DupProb
	if p < edge {
		return Fault{Kind: FaultDup}
	}
	edge += l.plan.ReorderProb
	if p < edge {
		return Fault{Kind: FaultReorder}
	}
	edge += l.plan.CorruptProb
	if p < edge {
		return Fault{Kind: FaultCorrupt}
	}
	return Fault{Kind: FaultNone}
}

// Send puts one frame on the wire, charging serialization time and applying
// the fault plan. The frame is not aliased after corruption (a corrupted
// copy is enqueued), so callers may reuse buffers.
func (l *Link) Send(frame []byte) {
	idx := l.xmits
	l.xmits++
	if l.tap != nil {
		l.tap(frame)
	}
	if l.params.PerByte > 0 {
		l.clk.Advance(time.Duration(len(frame)) * l.params.PerByte)
	}
	now := l.clk.Now()

	// Fixed PRNG consumption per transmission: one fault draw. Branch-local
	// draws below depend only on the (deterministic) outcome, so replays are
	// exact.
	f := l.faultFor(idx, l.rng.Float64())
	if f.Kind == FaultPartition {
		l.AddPartition(f.For)
		if l.tr != nil {
			l.tr.Instant(trace.TrackNet, "net.link.partition", trace.I("xmit", idx), trace.D("for", f.For))
		}
	}

	if l.partitioned(now) {
		if l.tr != nil {
			l.tr.Instant(trace.TrackNet, "net.link.partition-drop", trace.I("xmit", idx))
		}
		return
	}

	arrive := now + l.params.Latency
	switch f.Kind {
	case FaultDrop:
		if l.tr != nil {
			l.tr.Instant(trace.TrackNet, "net.link.drop", trace.I("xmit", idx))
		}
		return
	case FaultCorrupt:
		b := append([]byte(nil), frame...)
		if len(b) > 0 {
			b[l.rng.Intn(len(b))] ^= 0x20
		}
		frame = b
		if l.tr != nil {
			l.tr.Instant(trace.TrackNet, "net.link.corrupt", trace.I("xmit", idx))
		}
	case FaultDup:
		l.enqueue(frame, arrive)
		arrive += l.params.Latency/2 + time.Microsecond
		if l.tr != nil {
			l.tr.Instant(trace.TrackNet, "net.link.dup", trace.I("xmit", idx))
		}
	case FaultReorder:
		// A reordered frame arrives four link latencies late (10µs on a
		// zero-latency link).
		by := 4 * l.params.Latency
		if by <= 0 {
			by = 10 * time.Microsecond
		}
		arrive += by
		if l.tr != nil {
			l.tr.Instant(trace.TrackNet, "net.link.reorder", trace.I("xmit", idx))
		}
	}
	l.enqueue(frame, arrive)
}

func (l *Link) enqueue(frame []byte, arrive time.Duration) {
	l.inflight = append(l.inflight, delivery{data: frame, arrive: arrive})
}

// Recv pops the earliest-arriving frame, advancing the clock to its arrival
// instant, or reports false when nothing is in flight. Equal arrivals keep
// send order.
func (l *Link) Recv() ([]byte, bool) {
	if len(l.inflight) == 0 {
		return nil, false
	}
	best := 0
	for i := 1; i < len(l.inflight); i++ {
		if l.inflight[i].arrive < l.inflight[best].arrive {
			best = i
		}
	}
	d := l.inflight[best]
	l.inflight = append(l.inflight[:best], l.inflight[best+1:]...)
	if now := l.clk.Now(); d.arrive > now {
		l.clk.Advance(d.arrive - now)
	}
	return d.data, true
}

// Pipe is a bidirectional wire: Fwd carries data frames, Rev carries acks.
// Both directions run on the sending machine's clock — the transfer is a
// synchronous lockstep, and the lag the replication tables report is
// measured on the primary's timeline.
type Pipe struct {
	Fwd, Rev *Link
}

// NewPipe builds a wire whose forward direction runs fwd's fault plan and
// whose reverse (ack) direction runs rev's. Distinct PRNGs: a fault drawn
// on one direction never perturbs the other.
func NewPipe(clk clock.Clock, params Params, fwd, rev Plan) *Pipe {
	return &Pipe{Fwd: NewLink(clk, params, fwd), Rev: NewLink(clk, params, rev)}
}

// SetTracer attaches tr to both directions.
func (p *Pipe) SetTracer(tr *trace.Tracer) {
	p.Fwd.SetTracer(tr)
	p.Rev.SetTracer(tr)
}

// Cut partitions both directions for d starting now — the "connection
// killed mid-delta" scenario resumable sync exists for.
func (p *Pipe) Cut(d time.Duration) {
	p.Fwd.AddPartition(d)
	p.Rev.AddPartition(d)
}

// String summarizes a plan for sweep failure messages.
func (p Plan) String() string {
	return fmt.Sprintf("seed=%d probs(drop=%g dup=%g reorder=%g corrupt=%g) faults=%d",
		p.Seed, p.DropProb, p.DupProb, p.ReorderProb, p.CorruptProb, len(p.Faults))
}

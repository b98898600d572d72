// Package trace is the one instrumentation seam of the Aurora
// reproduction: a *Tracer is a machine's single observer, keyed to the
// simulated virtual clock. It owns the metric store — every counter, gauge
// and log-bucketed histogram a layer reports accumulates here and nowhere
// else — and, when built with New, the event timeline: spans (parent/child
// intervals of virtual time), instants and counter samples, exported as
// Chrome trace-event JSON (chrome://tracing / Perfetto loadable) and as a
// text rollup. internal/telemetry reads the store (cadence sampling, SLOs,
// fleet merge, Prometheus/JSON export); it keeps no second copy.
//
// Every entry point is safe on a nil *Tracer and returns immediately, so a
// subsystem holds a plain pointer and the disabled path costs exactly one
// pointer check and no allocation: Args are plain values, copied only by an
// enabled tracer, so the variadic slice at a call site stays on the stack.
// Hot paths that would compute arguments before the call guard with
// `if tr != nil { ... }` so the disabled cost stays at that one branch. The
// enabled path serializes on one mutex — observing is for diagnosis, not
// for the benchmarked configuration.
//
// Timestamps are virtual: spans measure simulated time, which is what the
// paper's tables report. Stages that burn host CPU but no virtual time
// (e.g. the flush pipeline's encode stage) appear as zero-width spans
// carrying their host-time cost in args — the virtual timeline stays the
// single source of truth for durations.
package trace

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"aurora/internal/clock"
)

// Track is the timeline lane an event renders under — one per subsystem,
// mapped to a Chrome thread id on export.
type Track uint8

// Tracks, top-down in the exported view.
const (
	TrackSLS      Track = iota // checkpoint/restore orchestration
	TrackFlush                 // flush pipeline jobs
	TrackObjstore              // store commit protocol and page batches
	TrackDevice                // per-submit device activity
	TrackFault                 // injected faults
	TrackNet                   // replication wire: transfers, retries, link faults
	TrackFleet                 // placement decisions: heartbeat scans, failover, rebalance
	TrackAudit                 // watchdog sweeps and SLO breaches
	numTracks
)

// Tracks returns every defined lane in export order.
func Tracks() []Track {
	out := make([]Track, 0, numTracks)
	for t := Track(0); t < numTracks; t++ {
		out = append(out, t)
	}
	return out
}

// String names the track as exported.
func (t Track) String() string {
	switch t {
	case TrackSLS:
		return "sls"
	case TrackFlush:
		return "flush"
	case TrackObjstore:
		return "objstore"
	case TrackDevice:
		return "device"
	case TrackFault:
		return "fault"
	case TrackNet:
		return "net"
	case TrackFleet:
		return "fleet"
	case TrackAudit:
		return "audit"
	}
	return fmt.Sprintf("track%d", uint8(t))
}

// Arg is one key/value annotation on an event: an integer (Int) or, from S,
// a string (Str). It holds no interface, so building one never allocates.
type Arg struct {
	Key   string
	Str   string
	Int   int64
	isStr bool
}

// I is shorthand for an integer Arg.
func I(key string, v int64) Arg { return Arg{Key: key, Int: v} }

// S is shorthand for a string Arg.
func S(key string, v string) Arg { return Arg{Key: key, Str: v, isStr: true} }

// D is shorthand for a duration Arg, exported in nanoseconds.
func D(key string, v time.Duration) Arg { return Arg{Key: key, Int: int64(v)} }

// Value returns the annotation as exported: a string or an int64.
func (a Arg) Value() any {
	if a.isStr {
		return a.Str
	}
	return a.Int
}

// EventKind discriminates collected events.
type EventKind uint8

// Event kinds.
const (
	KindSpan    EventKind = iota // complete interval [Start, Start+Dur)
	KindInstant                  // point event
	KindCounter                  // counter sample (Value = total after update)
)

// Event is one collected trace record.
type Event struct {
	Kind   EventKind
	Track  Track
	Name   string
	Start  time.Duration // virtual time
	Dur    time.Duration // spans only
	ID     uint64        // span id (spans only)
	Parent uint64        // parent span id, 0 for roots
	Value  int64         // counter samples
	Args   []Arg
}

// Tracer is one machine's observer: the metric store, and (from New) the
// event timeline, both against a virtual clock. The zero value is not
// usable; construct with New or NewMetricsOnly. A nil *Tracer is the
// disabled observer: every method is a no-op after one pointer check.
type Tracer struct {
	clk      clock.Clock
	timeline bool // events are retained; fixed at construction

	spanID atomic.Uint64

	mu       sync.Mutex
	events   []Event
	counters map[string]int64
	gauges   map[string]int64
	hists    map[string]*Histogram
}

// New returns an observer that keeps both the metric store and the event
// timeline, reading timestamps from clk.
func New(clk clock.Clock) *Tracer {
	t := NewMetricsOnly(clk)
	t.timeline = true
	return t
}

// NewMetricsOnly returns an observer that keeps the metric store but no
// timeline: spans and instants are inert, counters take no samples.
func NewMetricsOnly(clk clock.Clock) *Tracer {
	return &Tracer{
		clk:      clk,
		counters: make(map[string]int64),
		gauges:   make(map[string]int64),
		hists:    make(map[string]*Histogram),
	}
}

// Now returns the observer's virtual time (0 from the nil observer).
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return t.clk.Now()
}

// Span is an open interval on a tracer: two words, so it travels in
// registers and a function holding several costs no stack. The zero Span
// (from a nil or metrics-only tracer) is inert: Child and End are no-ops.
type Span struct {
	t  *Tracer
	ev *Event // the record End completes; the begin-args are already on it
}

// Begin opens a root span on track at the current virtual time.
func (t *Tracer) Begin(track Track, name string, args ...Arg) Span {
	return t.begin(track, name, 0, args)
}

// begin copies args rather than keeping the caller's slice, so a call site's
// variadic slice never escapes and the nil path allocates nothing.
func (t *Tracer) begin(track Track, name string, parent uint64, args []Arg) Span {
	if t == nil || !t.timeline {
		return Span{}
	}
	return Span{t: t, ev: &Event{
		Kind: KindSpan, Track: track, Name: name,
		Start: t.clk.Now(), ID: t.spanID.Add(1), Parent: parent,
		Args: append([]Arg(nil), args...),
	}}
}

// Child opens a span nested under s, on s's track.
func (s Span) Child(name string, args ...Arg) Span {
	if s.t == nil {
		return Span{}
	}
	return s.t.begin(s.ev.Track, name, s.ev.ID, args)
}

// ChildOn opens a span nested under s on a different track.
func (s Span) ChildOn(track Track, name string, args ...Arg) Span {
	if s.t == nil {
		return Span{}
	}
	return s.t.begin(track, name, s.ev.ID, args)
}

// End closes the span at the current virtual time. The recorded event
// carries the begin-args first, then args.
func (s Span) End(args ...Arg) {
	if s.t == nil {
		return
	}
	ev := *s.ev
	ev.Dur = s.t.clk.Now() - ev.Start
	ev.Args = append(ev.Args, args...)
	s.t.append(ev)
}

// ID returns the span's id, for cross-referencing in args; 0 for the inert
// span.
func (s Span) ID() uint64 {
	if s.t == nil {
		return 0
	}
	return s.ev.ID
}

// Start returns the span's opening virtual time.
func (s Span) Start() time.Duration {
	if s.t == nil {
		return 0
	}
	return s.ev.Start
}

// Range records a complete span over a known virtual interval — how async
// work (a device submit that settles later) lands on the timeline without
// holding a Span open.
func (t *Tracer) Range(track Track, name string, start, end time.Duration, args ...Arg) {
	if t == nil || !t.timeline {
		return
	}
	if end < start {
		end = start
	}
	t.append(Event{
		Kind: KindSpan, Track: track, Name: name,
		Start: start, Dur: end - start,
		ID: t.spanID.Add(1), Args: append([]Arg(nil), args...),
	})
}

// Instant records a point event at the current virtual time.
func (t *Tracer) Instant(track Track, name string, args ...Arg) {
	if t == nil || !t.timeline {
		return
	}
	t.append(Event{Kind: KindInstant, Track: track, Name: name, Start: t.clk.Now(), Args: append([]Arg(nil), args...)})
}

// Count adds delta to the named monotonic counter; a timeline also takes a
// sample of the new total. A zero delta declares the name, so a clean run
// still exports it as 0 rather than as "no data".
func (t *Tracer) Count(name string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	total := t.counters[name] + delta
	t.counters[name] = total
	t.sampleLocked(name, total)
	t.mu.Unlock()
}

// Gauge sets the named momentary value (queue depths, backlogs, load); a
// timeline also takes a sample of it.
func (t *Tracer) Gauge(name string, v int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.gauges[name] = v
	t.sampleLocked(name, v)
	t.mu.Unlock()
}

func (t *Tracer) sampleLocked(name string, v int64) {
	if t.timeline {
		t.events = append(t.events, Event{Kind: KindCounter, Name: name, Start: t.clk.Now(), Value: v})
	}
}

// Observe adds v to the named histogram (latencies in nanoseconds, depths
// in counts).
func (t *Tracer) Observe(name string, v int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	h := t.hists[name]
	if h == nil {
		h = NewHistogram(name)
		t.hists[name] = h
	}
	h.observe(v)
	t.mu.Unlock()
}

func (t *Tracer) append(ev Event) {
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Events returns a copy of the collected timeline in collection order (nil
// from a metrics-only tracer).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// CounterValue returns the named counter's total (0 if never touched).
func (t *Tracer) CounterValue(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// GaugeValue returns the named gauge's last value (0 if never set).
func (t *Tracer) GaugeValue(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.gauges[name]
}

// Quantile returns the named histogram's q-quantile (0 if absent).
func (t *Tracer) Quantile(name string, q float64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hists[name].Quantile(q)
}

// HistogramCopy returns a standalone copy of the named histogram for
// merging, or nil if never observed.
func (t *Tracer) HistogramCopy(name string) *Histogram {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.hists[name]
	if h == nil {
		return nil
	}
	cp := NewHistogram(name)
	cp.Merge(h)
	return cp
}

// Histogram is a log2-bucketed distribution: bucket i holds values whose
// bit length is i, so relative error is bounded by 2x — plenty for
// latency rollups spanning nanoseconds to seconds.
type Histogram struct {
	name    string
	count   int64
	sum     int64
	min     int64
	max     int64
	buckets [65]int64
}

// NewHistogram returns an empty standalone histogram — the same log2
// bucketing the tracer uses, constructible outside a Tracer so fleet
// aggregation shares one quantile implementation.
func NewHistogram(name string) *Histogram {
	return &Histogram{name: name, min: int64(^uint64(0) >> 1)}
}

// Name returns the histogram's name.
func (h *Histogram) Name() string { return h.name }

// Add records one observation. Negative values clamp to zero, matching
// the tracer's Observe path.
func (h *Histogram) Add(v int64) { h.observe(v) }

// Samples returns the observation count.
func (h *Histogram) Samples() int64 { return h.count }

// Quantile returns the bucket-midpoint estimate for q in [0, 1], clamped
// into [min, max]. An empty histogram reports 0.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return h.quantile(q)
}

// Merge folds o into h: counts, sums, and buckets add; min/max widen.
// Because both sides bucket by bit length, merged quantiles stay within
// the same 2x relative-error bound and are always bounded by the inputs'
// combined [min, max] envelope. A nil or empty o is a no-op.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
}

// Snapshot returns the read-only summary (count, sum, min/max, p50/95/99).
func (h *Histogram) Snapshot() HistSnapshot { return h.snapshot() }

func (h *Histogram) observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.buckets[bits.Len64(uint64(v))]++
}

// HistSnapshot is a read-only summary of one histogram, tagged as the
// metrics artifact spells it.
type HistSnapshot struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
	Sum   int64  `json:"sum"`
	Min   int64  `json:"min"`
	Max   int64  `json:"max"`
	P50   int64  `json:"p50"`
	P95   int64  `json:"p95"`
	P99   int64  `json:"p99"`
}

func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{Name: h.name, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if h.count == 0 {
		s.Min = 0
		return s
	}
	s.P50 = h.quantile(0.50)
	s.P95 = h.quantile(0.95)
	s.P99 = h.quantile(0.99)
	return s
}

// quantile returns an estimate bounded by the true bucket: the bucket
// midpoint, clamped into [min, max].
func (h *Histogram) quantile(q float64) int64 {
	rank := int64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen int64
	for i, n := range h.buckets {
		seen += n
		if seen > rank {
			lo := int64(0)
			if i > 0 {
				lo = int64(1) << (i - 1)
			}
			hi := int64(1)<<i - 1
			mid := lo + (hi-lo)/2
			if mid < h.min {
				mid = h.min
			}
			if mid > h.max {
				mid = h.max
			}
			return mid
		}
	}
	return h.max
}

// NamedValue is one counter total or gauge reading.
type NamedValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Metrics is the store at one instant, every list sorted by name: names are
// first touched from concurrent goroutines (flush workers reach dev.*), so
// any other order would make the artifacts scheduler-dependent.
type Metrics struct {
	Counters   []NamedValue
	Gauges     []NamedValue
	Histograms []HistSnapshot
}

// Metrics walks the store once. The rollup, the JSON snapshot, the
// Prometheus text and the inspect report all render from this one walk.
func (t *Tracer) Metrics() Metrics {
	var m Metrics
	if t == nil {
		return m
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	m.Counters = sortedValues(t.counters)
	m.Gauges = sortedValues(t.gauges)
	for _, h := range t.hists {
		m.Histograms = append(m.Histograms, h.snapshot())
	}
	slices.SortFunc(m.Histograms, func(a, b HistSnapshot) int { return cmp.Compare(a.Name, b.Name) })
	return m
}

func sortedValues(vals map[string]int64) []NamedValue {
	out := make([]NamedValue, 0, len(vals))
	for name, v := range vals {
		out = append(out, NamedValue{Name: name, Value: v})
	}
	slices.SortFunc(out, func(a, b NamedValue) int { return cmp.Compare(a.Name, b.Name) })
	return out
}

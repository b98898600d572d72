package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"
)

// errDeadline aborts a run that outlived -max-seconds.
var errDeadline = errors.New("-max-seconds deadline passed")

// run is the state of one pass over one workload: the seed and sizes going
// in; samples, counts and spans coming out.
type run struct {
	seed     int64
	sz       sizes
	traced   bool
	deadline time.Time

	attempted int64 // app operations, syncs, restores and checks attempted
	failed    int64 // of those, any error or content mismatch
	firstFail string

	cal    calibration // the host's speed, sampled all along the run (calib.go)
	setups series      // host ns of each set-up

	// The workload's main loop and each phase of its coda are sampled apart,
	// so that no reported figure mixes them: parts holds them in the order
	// they ran, the main loop first, and cur is the one being filled.
	parts []*samples
	cur   *samples

	opVirt      hist      // per-op virtual latency of the main loop, ns
	putsOnly    bool      // opVirt keeps only ops that wrote user data
	ampOverPuts bool      // write_amp divides by user put bytes, not by dirty pages
	segs        []segment // the equal-work segments of the main loop
	servedOps   int64
	putBytes    int64
	mainOps     int64         // ops of the phase virt_ops_per_s is taken over
	mainVirt    time.Duration // its virtual duration
	blocksLive  int64         // store blocks in use when the last stored phase ended

	host0, cal0  int64         // host time set-up ended, and the host time calibration had taken by then
	mainHost     time.Duration // host time from there to the end of the main loop, calibration excluded
	measuredHost time.Duration // and to the end of the run
	mainServed   int64         // ops served by then
	mainSpans    int           // spans recorded by then
	mem0, mem1   goStats       // allocator readings around the main loop
	heapPeak     uint64        // heap obtained from the OS by the end of the run

	spans  []span
	open   []int32 // stack of open span indices
	nextOp int64
}

// samples is what one part of a run measured: its main loop, or one phase
// of its coda.
type samples struct {
	name   string // "main", "coda.commit", ...; reports carry it beside each value
	series map[string]*series
	cal    *calibration // the run's, to scale host durations by

	// What checkpoints report about themselves (virtual ns unless named host).
	stop, durable, durableLag, osTime, memTime []float64
	dirtyPages, objects                        int64
	walFrames, walFolds                        int64
	queueDepthMax, flushWorkers                int // the most any checkpoint reported

	// Store and device traffic over the phases bracketed by stored, and the
	// device reads of the restore chain.
	storedPuts                                           int64
	diskWrites, diskWriteBytes, diskReads, diskReadBytes int64
	metaBytes, dataBytes                                 int64

	// Restore chain.
	restoreVirt, ttfoVirt                                 []float64 // from the crash
	restoreOnly, ttfoOnly                                 []float64 // as RestoreStats reports them
	pagesEager, specValidated, specRollbacks, lazyPageIns int64

	// Replication.
	lagVirt, failoverVirt                         []float64
	streamBytes, wireBytes, retransmits, backoffs int64
}

func newRun(seed int64, sz sizes, traced bool, deadline time.Time) *run {
	x := &run{seed: seed, sz: sz, traced: traced, deadline: deadline}
	x.begin("main")
	return x
}

// begin opens the next part of the run; what is sampled from here on lands
// in it.
func (x *run) begin(name string) {
	x.cur = &samples{name: name, series: make(map[string]*series), cal: &x.cal}
	x.parts = append(x.parts, x.cur)
}

// span is one traced call: host and virtual start/end in ns, the span that
// was open when it started, and the id of the operation it belongs to.
type span struct {
	name       string
	parent     int32
	op         int64
	hostStart  int64
	hostEnd    int64
	virtStart  int64
	virtEnd    int64
	virtClocks bool // false for spans with no machine clock (probes)
}

func (s *samples) ser(name string) *series {
	r := s.series[name]
	if r == nil {
		r = &series{}
		s.series[name] = r
	}
	return r
}

// fail counts one failed attempt and keeps the first reason for the report.
func (x *run) fail(format string, args ...any) {
	x.failed++
	if x.firstFail == "" {
		x.firstFail = fmt.Sprintf(format, args...)
	}
}

// check counts one attempted verification and fails it when err is non-nil.
func (x *run) check(what string, err error) {
	x.attempted++
	if err != nil {
		x.fail("%s: %v", what, err)
	}
}

func (x *run) expired() error {
	if time.Now().After(x.deadline) {
		return errDeadline
	}
	return nil
}

var hostEpoch = time.Now()

func hostNow() int64 { return int64(time.Since(hostEpoch)) }

// timed runs fn as one call into a layer: its host and virtual durations
// join the series of that name, and a traced run also keeps the span. clk
// may be nil for calls that run on no machine clock.
func (x *run) timed(name string, clk interface{ Now() time.Duration }, fn func() error) error {
	var v0 int64
	if clk != nil {
		v0 = int64(clk.Now())
	}
	idx := int32(-1)
	if x.traced {
		parent := int32(-1)
		if n := len(x.open); n > 0 {
			parent = x.open[n-1]
		}
		idx = int32(len(x.spans))
		x.spans = append(x.spans, span{name: name, parent: parent, op: x.nextOp, virtClocks: clk != nil})
		x.open = append(x.open, idx)
	}
	h0 := hostNow()
	err := fn()
	h1 := hostNow()
	var v1 int64
	if clk != nil {
		v1 = int64(clk.Now())
	}
	x.cur.ser(name).add(h0, float64(h1-h0), float64(v1-v0))
	if idx >= 0 {
		s := &x.spans[idx]
		s.hostStart, s.hostEnd, s.virtStart, s.virtEnd = h0, h1, v0, v1
		x.open = x.open[:len(x.open)-1]
	}
	return err
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (complete
// "X" events on the host clock; virtual times and the parent ride in args).
func (x *run) writeChromeTrace(w io.Writer) error {
	type ev struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]ev, 0, len(x.spans))
	for i, s := range x.spans {
		args := map[string]any{"id": i, "parent": s.parent, "op": s.op}
		if s.virtClocks {
			args["virt_start_ns"] = s.virtStart
			args["virt_end_ns"] = s.virtEnd
		}
		evs = append(evs, ev{
			Name: s.name, Ph: "X",
			Ts: float64(s.hostStart) / 1e3, Dur: float64(s.hostEnd-s.hostStart) / 1e3,
			Pid: 1, Tid: 1, Args: args,
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
}

// selfHost returns each span name's total host self time over the main
// loop: its duration minus the part covered by its direct children.
func (x *run) selfHost() map[string]float64 {
	spans := x.spans[:x.mainSpans]
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.hostEnd - s.hostStart
		}
	}
	out := make(map[string]float64)
	for i, s := range spans {
		out[s.name] += float64(s.hostEnd - s.hostStart - child[i])
	}
	return out
}

// segmenter turns a measured phase into equal-work segments so throughput
// is a midmean over segments instead of one total: a GC cycle or a noisy
// neighbour then moves one segment, not the result. Work arrives as ticks
// (a batch, a commit, a sync round); ops are read off x.servedOps. Host time
// counts only between begin and the ticks that follow it, so the parts of a
// workload that serve nothing (a restore between two serve phases) stay out,
// and so do the calibration kernel's runs.
type segmenter struct {
	x          *run
	per, units int64 // ticks per segment, ticks so far in this one
	busy, last int64 // host ns inside this segment; host time of the last begin or tick
	cal        int64 // x.cal.spent at the last begin or tick
	ops0       int64 // x.servedOps when this segment opened
	t0         int64 // host time of this segment's first begin or tick
}

// segment is one equal-work share of the main loop: the ops it served, the
// host ns it was busy for, and the host interval it lies in.
type segment struct {
	ops, busy, t0, t1 float64
}

const nSegments = 20

func (x *run) segments(totalTicks int64) *segmenter {
	per := totalTicks / nSegments
	if per < 1 {
		per = 1
	}
	return &segmenter{x: x, per: per, ops0: x.servedOps}
}

func (s *segmenter) begin() {
	s.last, s.cal = hostNow(), s.x.cal.spent
	if s.t0 == 0 {
		s.t0 = s.last
	}
}

func (s *segmenter) tick() {
	now, cal := hostNow(), s.x.cal.spent
	s.busy += now - s.last - (cal - s.cal)
	s.last, s.cal = now, cal
	if s.units++; s.units < s.per {
		return
	}
	if s.busy > 0 {
		s.x.segs = append(s.x.segs, segment{float64(s.x.servedOps - s.ops0), float64(s.busy), float64(s.t0), float64(now)})
	}
	s.units, s.busy, s.ops0, s.t0 = 0, 0, s.x.servedOps, now
}

// measure runs fn as (part of) the phase virt_ops_per_s is taken over.
func (x *run) measure(clk interface{ Now() time.Duration }, fn func() error) error {
	ops0, v0 := x.servedOps, clk.Now()
	err := fn()
	x.mainOps += x.servedOps - ops0
	x.mainVirt += clk.Now() - v0
	return err
}

// beginMeasured marks the end of set-up. Collecting here gives every run
// the same heap to start measuring from, whatever the set-ups left behind.
func (x *run) beginMeasured() {
	runtime.GC()
	x.mem0 = readGoStats()
	x.host0, x.cal0 = hostNow(), x.cal.spent
}

// endMain closes the workload's main loop. What runs from here on is the
// coda, each phase of it sampled apart.
func (x *run) endMain() {
	x.mainHost = time.Duration(hostNow() - x.host0 - (x.cal.spent - x.cal0))
	x.mem1 = readGoStats()
	x.mainServed, x.mainSpans = x.servedOps, len(x.spans)
	x.cur = nil
}

func (x *run) endMeasured() {
	x.measuredHost = time.Duration(hostNow() - x.host0 - (x.cal.spent - x.cal0))
	x.heapPeak = readGoStats().heapSys
}

// goStats is the allocator and collector activity up to a point in the run.
type goStats struct {
	mallocs, bytes   uint64
	gcCycles         uint32
	pauseNS, heapSys uint64
}

func readGoStats() goStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goStats{mallocs: m.Mallocs, bytes: m.TotalAlloc, gcCycles: m.NumGC, pauseNS: m.PauseTotalNs, heapSys: m.HeapSys}
}

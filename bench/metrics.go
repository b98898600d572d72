package main

import (
	"sort"

	"aurora"
)

// metricDef describes one reported metric. The tables below are the single
// source of the names, units, directions and bounds: BENCHMARK.json is
// printed from them (-manifest) and a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	clock  string  // "virt": modelled Aurora, exact for a seed; "host": how fast the Go runs; "count"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	exact  bool    // repeats bit for bit for a fixed seed, scale and seconds
}

// Regression bounds. A bound has to hold the spread of ten runs on ten
// different seeds, ideally three times over. Virtual-clock values repeat
// exactly for one seed (-compare checks that) but move with the seed: by up
// to 4 % for the lag over a wire (seeded drops, seeded delta sizes), by 1 %
// or less elsewhere; the byte ratio moves by 0.3 %. Host values spread by 2-12 %
// between runs on the 2-core sandbox the benchmark was sized on, which also
// slows by a quarter for minutes at a time whatever runs on it; they get the
// most a bound may be.
const (
	boundVirt = 0.05
	boundLag  = 0.10
	boundAmp  = 0.02
	boundHost = 0.25
)

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", clock: "host", bound: boundHost},
	{name: "host_ops_per_s", unit: "ops/s", better: "higher", clock: "host", bound: boundHost},
	{name: "host_ckpt_us_p50", unit: "us", better: "lower", clock: "host", bound: boundHost},
	{name: "host_restore_us_p50", unit: "us", better: "lower", clock: "host", bound: boundHost},
	{name: "host_sync_us_p50", unit: "us", better: "lower", clock: "host", bound: boundHost},
	{name: "virt_ops_per_s", unit: "ops/virt-s", better: "higher", clock: "virt", bound: boundVirt, exact: true},
	{name: "virt_op_us_p99", unit: virtMicros, better: "lower", clock: "virt", bound: boundVirt, exact: true},
	{name: "virt_stop_us_p99", unit: virtMicros, better: "lower", clock: "virt", bound: boundVirt, exact: true},
	{name: "virt_durable_us_p99", unit: virtMicros, better: "lower", clock: "virt", bound: boundVirt, exact: true},
	{name: "virt_restore_us_p50", unit: virtMicros, better: "lower", clock: "virt", bound: boundVirt, exact: true},
	{name: "virt_ttfo_us_p50", unit: virtMicros, better: "lower", clock: "virt", bound: boundVirt, exact: true},
	{name: "virt_lag_us_p99", unit: virtMicros, better: "lower", clock: "virt", bound: boundLag, exact: true},
	{name: "virt_failover_us_p50", unit: virtMicros, better: "lower", clock: "virt", bound: boundVirt, exact: true},
	{name: "write_amp", unit: "ratio", better: "lower", clock: "count", bound: boundAmp, exact: true},
}

// virtMicros is the unit of virtual-clock durations. They are counts of
// modelled microseconds, exact for a seed, not readings of a wall clock, and
// the unit says so.
const virtMicros = "virt-us"

func hostUS(name string) metricDef {
	return metricDef{name: name, unit: "us", better: "lower", clock: "host"}
}
func virtUS(name string) metricDef {
	return metricDef{name: name, unit: virtMicros, better: "lower", clock: "virt", exact: true}
}
func probeNS(name string) metricDef {
	return metricDef{name: name, unit: "ns", better: "lower", clock: "host"}
}
func count(name, unit, better string, exact bool) metricDef {
	return metricDef{name: name, unit: unit, better: better, clock: "count", exact: exact}
}

// perLayer is what a traced run reports, layer by layer. Nothing here is
// read from inside the program: each value is a span the benchmark records
// around its own call, a figure the call returned or a public Stats()
// exposes, or a probe (probes.go).
var perLayer = []metricDef{
	probeNS("apps.op_host_ns_p50"),
	count("apps.op_host_share", "ratio", "lower", false),
	hostUS("apps.rebuild_index_host_us_p50"),

	virtUS("vm.shadow_virt_us_p50"),
	count("vm.dirty_pages_per_ckpt", "pages", "lower", true),
	probeNS("vm.write_hit_ns"),
	probeNS("vm.fault_cold_ns"),
	probeNS("vm.shadow_ns_per_page"),
	probeNS("vm.collapse_ns_per_page"),
	probeNS("mem.alloc_free_ns"),

	virtUS("kern.serialize_virt_us_p50"),
	count("kern.objects_per_ckpt", "count", "lower", true),
	probeNS("kern.pipe_roundtrip_ns"),
	probeNS("kern.socket_setup_ns"),

	hostUS("sls.ckpt_host_us_p50"),
	hostUS("sls.ckpt_host_us_p99"),
	count("sls.ckpt_host_share", "ratio", "lower", false),
	hostUS("sls.barrier_host_us_p50"),
	virtUS("sls.stop_virt_us_p50"),
	hostUS("sls.flush_encode_host_us_p50"),
	count("sls.flush_queue_depth_max", "count", "lower", false),
	count("sls.flush_workers", "count", "higher", true),
	hostUS("sls.restore_eager_host_us_p50"),
	hostUS("sls.restore_lazy_host_us_p50"),
	hostUS("sls.restore_spec_host_us_p50"),
	virtUS("sls.restore_eager_virt_us_p50"),
	virtUS("sls.ttfo_virt_us_p50"),
	count("sls.restore_pages_eager", "pages", "lower", true),
	count("sls.spec_pages_validated", "pages", "lower", true),
	count("sls.spec_rollbacks", "count", "lower", true),
	count("sls.lazy_pageins", "count", "lower", true),
	hostUS("sls.sync_host_us_p50"),
	count("sls.sync_stream_bytes", "bytes", "lower", true),
	hostUS("sls.failover_host_us_p50"),

	hostUS("objstore.write_host_us_p50"),
	virtUS("objstore.durable_lag_virt_us_p50"),
	count("objstore.meta_bytes_per_ckpt", "bytes", "lower", true),
	count("objstore.data_bytes_per_ckpt", "bytes", "lower", true),
	count("objstore.blocks_live_end", "blocks", "lower", true),
	count("objstore.wal_frames", "count", "higher", true),
	count("objstore.wal_folds", "count", "lower", true),
	hostUS("objstore.recover_host_us_p50"),
	hostUS("objstore.recover_host_us_first"),
	hostUS("objstore.recover_host_us_last"),
	virtUS("objstore.recover_virt_us_p50"),
	probeNS("objstore.writepages_ns_per_page"),
	probeNS("objstore.checkpoint_64dirty_ns"),
	probeNS("objstore.journal_append_4k_ns"),
	probeNS("objstore.walcommit_ns"),
	probeNS("objstore.readpage_ns"),

	// Byte counts repeat exactly; submit counts may differ by a few under
	// the parallel flush pool.
	count("device.writes", "count", "lower", false),
	count("device.write_bytes", "bytes", "lower", true),
	count("device.reads", "count", "lower", false),
	count("device.read_bytes", "bytes", "lower", true),
	count("device.bytes_per_write", "bytes", "higher", false),
	probeNS("device.submit_write_4k_ns"),
	probeNS("device.submit_writev_64k_ns"),
	probeNS("device.submit_read_4k_ns"),

	count("net.wire_bytes", "bytes", "lower", true),
	count("net.wire_amp", "ratio", "lower", true),
	count("net.retransmits", "count", "lower", true),
	count("net.backoffs", "count", "lower", true),
	probeNS("net.transfer_clean_ns_per_mib"),
	probeNS("net.transfer_drop2_ns_per_mib"),

	probeNS("placement.tick_idle_ns"),
	virtUS("placement.failover_detect_virt_us"),

	probeNS("rec.seal_open_ns"),

	count("go.allocs_per_op", "count", "lower", false),
	count("go.alloc_bytes_per_op", "bytes", "lower", false),
	count("go.gc_cycles", "count", "lower", false),
	count("go.gc_pause_ms_total", "ms", "lower", false),
	count("go.heap_peak_mb", "MB", "lower", false),

	count("bench.trace_overhead_pct", "%", "lower", false),
	count("bench.host_slowdown", "ratio", "lower", false),
}

// value is one measured metric: the figure, how many samples stand behind
// it, which rule produced it ("p50", "p97.5", "midmean of segments", "total",
// ...) and which part of the run the samples come from ("main",
// "coda.commit", ..., or "setup", "probe", "run" for what belongs to no part).
// A host-clock timing is scaled by the host's slowdown (calib.go).
type value struct {
	v     float64
	n     int
	rule  string
	phase string
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (s *samples) p50(vs []float64, div float64) value {
	return value{median(vs) / div, len(vs), "p50", s.name}
}

// tail reports the target percentile, or the highest one the sample supports.
func (s *samples) tail(vs []float64, target, div float64) value {
	if len(vs) == 0 {
		return value{0, 0, ruleLabel(0, 0), s.name}
	}
	sort.Float64s(vs)
	i := tailIndex(len(vs), target)
	return value{vs[i] / div, len(vs), ruleLabel(i, len(vs)), s.name}
}

func (s *samples) total(v float64) value { return value{v, 1, "total", s.name} }

// scaled are r's host durations, each divided by the host's slowdown around
// its call.
func (c *calibration) scaled(r *series) []float64 {
	out := make([]float64, len(r.host))
	for i, d := range r.host {
		out[i] = d / c.slowdown(r.at[i], r.at[i]+d)
	}
	return out
}

// host is the midmean of the named series' host durations, and hostTail
// their tail by the rule every tail follows.
func (s *samples) host(name string, div float64) value {
	vs := s.cal.scaled(s.ser(name))
	return value{midmean(vs) / div, len(vs), "midmean", s.name}
}

func (s *samples) hostTail(name string, target, div float64) value {
	return s.tail(s.cal.scaled(s.ser(name)), target, div)
}

// rawHost is the midmean of the same durations as the clock read them.
func (s *samples) rawHost(name string, div float64) float64 {
	return midmean(append([]float64(nil), s.ser(name).host...)) / div
}

func (s *samples) virt(name string) []float64 {
	if r := s.series[name]; r != nil {
		return r.virt
	}
	return nil
}

// part picks where a family of metrics is read from: the first part of the
// run that produced samples of the family, which is the main loop whenever
// the main loop produces them at all. Parts are never mixed, so a change to
// the coda cannot move a figure the main loop produces, and the reverse.
func (x *run) part(has func(*samples) bool) *samples {
	for _, s := range x.parts {
		if has(s) {
			return s
		}
	}
	return x.parts[0]
}

// The four families. Every workload's main loop serves ops; which of the
// others it produces is what tells the workloads apart.
func (x *run) ckptPart() *samples { // commits the driver makes itself
	return x.part(func(s *samples) bool { return len(s.stop) > 0 })
}
func (x *run) storePart() *samples { // phases bracketed by stored
	return x.part(func(s *samples) bool { return s.diskWriteBytes > 0 })
}
func (x *run) restorePart() *samples {
	return x.part(func(s *samples) bool { return len(s.restoreVirt) > 0 })
}
func (x *run) replPart() *samples {
	return x.part(func(s *samples) bool { return len(s.lagVirt) > 0 })
}

// opTail is the tail of the main loop's per-op virtual latency (ns in, us out).
func (x *run) opTail(target float64) value {
	h := &x.opVirt
	if h.n == 0 {
		return value{0, 0, ruleLabel(0, 0), "main"}
	}
	i := tailIndex(int(h.n), target)
	return value{h.quantile(float64(i+1)/float64(h.n)) / 1e3, int(h.n), ruleLabel(i, int(h.n)), "main"}
}

// endToEndValues computes the metrics a user of the system would see. They
// come from an untraced run only.
func (x *run) endToEndValues() map[string]value {
	ck, st, rs, rp := x.ckptPart(), x.storePart(), x.restorePart(), x.replPart()
	// Write amplification divides by the user bytes put where the application
	// journals them itself, by the dirty pages captured everywhere else.
	committed := float64(st.dirtyPages) * aurora.PageSize
	if x.ampOverPuts {
		committed = float64(st.storedPuts)
	}
	return map[string]value{
		"setup_s":              x.setupTime(),
		"host_ops_per_s":       x.segmentRate(),
		"host_ckpt_us_p50":     ck.host(sCommit, 1e3),
		"host_restore_us_p50":  rs.host(sCrashRest+".eager", 1e3),
		"host_sync_us_p50":     rp.host(sSync, 1e3),
		"virt_ops_per_s":       {ratio(float64(x.mainOps), x.mainVirt.Seconds()), int(x.mainOps), "total", "main"},
		"virt_op_us_p99":       x.opTail(0.99),
		"virt_stop_us_p99":     ck.tail(ck.stop, 0.99, 1e3),
		"virt_durable_us_p99":  ck.tail(ck.durable, 0.99, 1e3),
		"virt_restore_us_p50":  rs.p50(rs.restoreVirt, 1e3),
		"virt_ttfo_us_p50":     rs.p50(rs.ttfoVirt, 1e3),
		"virt_lag_us_p99":      rp.tail(rp.lagVirt, 0.99, 1e3),
		"virt_failover_us_p50": rp.p50(rp.failoverVirt, 1e3),
		"write_amp":            st.total(ratio(float64(st.diskWriteBytes), committed)),
	}
}

// setupTime is the midmean set-up, in seconds.
func (x *run) setupTime() value {
	return value{midmean(x.cal.scaled(&x.setups)) / 1e9, len(x.setups.host), "midmean", "setup"}
}

// segmentRate is the midmean over the main loop's equal-work segments of the
// ops served per host second.
func (x *run) segmentRate() value {
	rates := make([]float64, len(x.segs))
	for i, g := range x.segs {
		rates[i] = g.ops / (g.busy / 1e9) * x.cal.slowdown(g.t0, g.t1)
	}
	return value{midmean(rates), len(rates), "midmean of segments", "main"}
}

// rawEndToEnd are the host-clock end-to-end metrics as the clock read them,
// before scaling: reports carry them beside the scaled values.
func (x *run) rawEndToEnd() map[string]float64 {
	rates := make([]float64, len(x.segs))
	for i, g := range x.segs {
		rates[i] = g.ops / (g.busy / 1e9)
	}
	return map[string]float64{
		"setup_s":             midmean(append([]float64(nil), x.setups.host...)) / 1e9,
		"host_ops_per_s":      midmean(rates),
		"host_ckpt_us_p50":    x.ckptPart().rawHost(sCommit, 1e3),
		"host_restore_us_p50": x.restorePart().rawHost(sCrashRest+".eager", 1e3),
		"host_sync_us_p50":    x.replPart().rawHost(sSync, 1e3),
	}
}

// decileMeans are the means of the first and last tenth of vs in order of
// arrival: how a cost drifts along a chain.
func decileMeans(vs []float64) (first, last float64) {
	k := len(vs) / 10
	if k < 1 {
		k = 1
	}
	if len(vs) == 0 {
		return 0, 0
	}
	for i := 0; i < k; i++ {
		first += vs[i]
		last += vs[len(vs)-1-i]
	}
	return first / float64(k), last / float64(k)
}

// perLayerValues computes the layer-by-layer metrics of a traced run, each
// from the part of the run the end-to-end metric it explains is read from.
// The shares and the allocator figures cover the main loop. untracedHost is
// the measured host time of the same workload with tracing off, run just
// before in the same process; probes holds the probe results.
func (x *run) perLayerValues(untracedHost float64, probes map[string]value) map[string]value {
	ck, st, rs, rp, mn := x.ckptPart(), x.storePart(), x.restorePart(), x.replPart(), x.parts[0]
	self := x.selfHost()
	mainHost := float64(x.mainHost)
	nCkpt := float64(len(ck.stop))
	ops := float64(x.mainServed)
	crash := x.cal.scaled(rs.ser(sCrash)) // in arrival order
	recFirst, recLast := decileMeans(crash)
	mem := func(a, b uint64) float64 { return float64(b - a) }
	whole := func(v float64) value { return value{v, 1, "total", "run"} }

	out := map[string]value{
		"apps.op_host_ns_p50":            mn.host(sOp, 1),
		"apps.op_host_share":             mn.total(ratio(self[sBatch], mainHost)),
		"apps.rebuild_index_host_us_p50": rs.host(sRebuild, 1e3),

		"vm.shadow_virt_us_p50":   ck.p50(ck.memTime, 1e3),
		"vm.dirty_pages_per_ckpt": ck.total(ratio(float64(ck.dirtyPages), nCkpt)),

		"kern.serialize_virt_us_p50": ck.p50(ck.osTime, 1e3),
		"kern.objects_per_ckpt":      ck.total(ratio(float64(ck.objects), nCkpt)),

		"sls.ckpt_host_us_p50":          ck.host(sCkpt, 1e3),
		"sls.ckpt_host_us_p99":          ck.hostTail(sCkpt, 0.99, 1e3),
		"sls.ckpt_host_share":           mn.total(ratio(self[sCkpt], mainHost)),
		"sls.barrier_host_us_p50":       ck.host(sBarrier, 1e3),
		"sls.stop_virt_us_p50":          ck.p50(ck.stop, 1e3),
		"sls.flush_encode_host_us_p50":  ck.host(sEncode, 1e3),
		"sls.flush_queue_depth_max":     ck.total(float64(ck.queueDepthMax)),
		"sls.flush_workers":             ck.total(float64(ck.flushWorkers)),
		"sls.restore_eager_host_us_p50": rs.host(sRestore+".eager", 1e3),
		"sls.restore_lazy_host_us_p50":  rs.host(sRestore+".lazy", 1e3),
		"sls.restore_spec_host_us_p50":  rs.host(sRestore+".spec", 1e3),
		"sls.restore_eager_virt_us_p50": rs.p50(rs.restoreOnly, 1e3),
		"sls.ttfo_virt_us_p50":          rs.p50(rs.ttfoOnly, 1e3),
		"sls.restore_pages_eager":       rs.total(float64(rs.pagesEager)),
		"sls.spec_pages_validated":      rs.total(float64(rs.specValidated)),
		"sls.spec_rollbacks":            rs.total(float64(rs.specRollbacks)),
		"sls.lazy_pageins":              rs.total(float64(rs.lazyPageIns)),
		"sls.sync_host_us_p50":          rp.host(sSync, 1e3),
		"sls.sync_stream_bytes":         rp.total(float64(rp.streamBytes)),
		"sls.failover_host_us_p50":      rp.host(sFailover, 1e3),

		"objstore.write_host_us_p50":       ck.host(sWrite, 1e3),
		"objstore.durable_lag_virt_us_p50": ck.p50(ck.durableLag, 1e3),
		"objstore.meta_bytes_per_ckpt":     ck.total(ratio(float64(ck.metaBytes), nCkpt)),
		"objstore.data_bytes_per_ckpt":     ck.total(ratio(float64(ck.dataBytes), nCkpt)),
		"objstore.blocks_live_end":         whole(float64(x.blocksLive)),
		"objstore.wal_frames":              ck.total(float64(ck.walFrames)),
		"objstore.wal_folds":               ck.total(float64(ck.walFolds)),
		"objstore.recover_host_us_first":   {recFirst / 1e3, len(crash), "mean of first tenth", rs.name},
		"objstore.recover_host_us_last":    {recLast / 1e3, len(crash), "mean of last tenth", rs.name},
		"objstore.recover_host_us_p50":     rs.host(sCrash, 1e3),
		"objstore.recover_virt_us_p50":     rs.p50(rs.virt(sCrash), 1e3),

		// Writes are those behind write_amp; reads are those of the restore chain.
		"device.writes":          st.total(float64(st.diskWrites)),
		"device.write_bytes":     st.total(float64(st.diskWriteBytes)),
		"device.reads":           rs.total(float64(rs.diskReads)),
		"device.read_bytes":      rs.total(float64(rs.diskReadBytes)),
		"device.bytes_per_write": st.total(ratio(float64(st.diskWriteBytes), float64(st.diskWrites))),

		"net.wire_bytes":  rp.total(float64(rp.wireBytes)),
		"net.wire_amp":    rp.total(ratio(float64(rp.wireBytes), float64(rp.streamBytes))),
		"net.retransmits": rp.total(float64(rp.retransmits)),
		"net.backoffs":    rp.total(float64(rp.backoffs)),

		"go.allocs_per_op":      mn.total(ratio(mem(x.mem0.mallocs, x.mem1.mallocs), ops)),
		"go.alloc_bytes_per_op": mn.total(ratio(mem(x.mem0.bytes, x.mem1.bytes), ops)),
		"go.gc_cycles":          mn.total(float64(x.mem1.gcCycles - x.mem0.gcCycles)),
		"go.gc_pause_ms_total":  mn.total(mem(x.mem0.pauseNS, x.mem1.pauseNS) / 1e6),
		"go.heap_peak_mb":       whole(float64(x.heapPeak) / (1 << 20)),

		"bench.trace_overhead_pct": whole(100 * ratio(float64(x.measuredHost)-untracedHost, untracedHost)),
		"bench.host_slowdown":      {x.cal.overall(), len(x.cal.ns), "midmean", "run"},
	}
	for name, v := range probes {
		out[name] = v
	}
	return out
}

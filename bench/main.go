// Command bench is the repository's benchmark: five workloads over the
// aurora facade, each reported on both of the system's clocks. See README.md.
//
//	go run . -workload memcached-ckpt -seed 1            # end-to-end metrics
//	go run . -workload memcached-ckpt -seed 1 -trace 1   # per-layer metrics + trace file
//	go run . -compare A.json B.json                      # deltas against the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// hostProcs is fixed and recorded: the benchmark was sized on 2 cores, and
// Options.FlushWorkers stays at the product default (GOMAXPROCS), so work on
// lock scaling in the flush pool shows.
const hostProcs = 2

// The collector is pinned down for the whole process, and the settings are
// recorded in every report: a 1 GiB heap ballast (never touched, so it costs
// address space, not memory) and a GC percent of 50. Together they start a
// collection after every ~512 MiB of garbage whatever the live heap is.
// With the runtime's defaults the heap goal followed the live heap, which
// on these workloads jumps by a whole process image per restore, and two
// things went wrong on the sandbox the benchmark was sized on: wal-commit's
// collector ran about half the time, so its median commit flipped between
// "beside a collection" and "not" from run to run (host_ckpt_us_p50 spread by
// 8-12 % over six runs); and the scavenger kept returning and re-faulting
// memory, which cost crash-restore 7-32 s of system time per run. With the
// ballast the same runs spread by 1-2 % and spend 2 s in the kernel.
// Allocation still costs host time, and go.allocs_per_op reports it exactly.
const (
	gcPercent    = 50
	ballastBytes = 1 << 30
)

// ballast is allocated once per process and kept: allocating it again would
// hand back the same spans, which the runtime would then have to zero.
var ballast []byte

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name       = flag.String("workload", "", "workload to run")
		seed       = flag.Int64("seed", 1, "seed for every generated input")
		seconds    = flag.Int("seconds", 10, "full scale: length of the measured part the fixed counts are sized for")
		trace      = flag.Int("trace", 0, "1: traced run, reports the per-layer metrics and writes the trace file")
		scale      = flag.String("scale", "full", "full or smoke (tiny fixed counts, for tests)")
		maxSeconds = flag.Int("max-seconds", 150, "abort with a non-zero exit and a partial report after this long")
		out        = flag.String("out", "", "also write the full report (metrics with sample counts, run metadata) to this file")
		compare    = flag.Bool("compare", false, "compare two report files or directories: bench -compare A B")
		manifest   = flag.Bool("manifest", false, "print BENCHMARK.json")
	)
	flag.Parse()
	switch {
	case *manifest:
		os.Stdout.Write(manifestJSON())
		return 0
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A B")
			return 2
		}
		return compareReports(flag.Arg(0), flag.Arg(1), os.Stdout)
	}

	wl, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	sz, err := sizesFor(*scale, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	// A traced run leaves its Chrome trace beside the build outputs.
	traceOut := filepath.Join(".bench_build", "trace-"+wl.name+".json")

	// Last resort should a call into the system never return: the deadline
	// inside the run is checked between calls and cannot interrupt one.
	limit := time.Duration(*maxSeconds) * time.Second
	guard := time.AfterFunc(limit+20*time.Second, func() {
		fmt.Fprintln(os.Stderr, "bench: hung past -max-seconds; exiting")
		os.Exit(3)
	})
	defer guard.Stop()

	rep, err := execute(wl, *seed, sz, *trace == 1, time.Now().Add(limit), traceOut)
	if rep != nil {
		rep.print(os.Stdout)
		if *out != "" {
			if werr := rep.writeFile(*out); werr != nil {
				fmt.Fprintln(os.Stderr, "bench:", werr)
				return 1
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// The contract's result line is printed only by a run that finished.
	rep.printResultLine(os.Stdout)
	if !rep.Correct {
		return 1
	}
	return 0
}

// execute runs one workload and builds its report. A traced run is the
// workload twice in this process, untraced then traced, so that the cost of
// tracing is measured and not assumed, followed by the probes. On error the
// report holds whatever was measured so far.
func execute(wl workloadDef, seed int64, sz sizes, traced bool, deadline time.Time, traceOut string) (*report, error) {
	prev := runtime.GOMAXPROCS(hostProcs)
	defer runtime.GOMAXPROCS(prev)
	if ballast == nil {
		ballast = make([]byte, ballastBytes)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(gcPercent))

	rep := newReport(wl, seed, sz, traced)
	x := newRun(seed, sz, false, deadline)
	err := x.runWorkload(wl)
	if !traced {
		rep.fill(x, endToEnd, x.endToEndValues())
		return rep, err
	}
	if err != nil {
		rep.fill(x, nil, nil)
		return rep, err
	}
	untraced := float64(x.measuredHost)
	x = newRun(seed, sz, true, deadline)
	if err = x.runWorkload(wl); err != nil {
		rep.fill(x, nil, nil)
		return rep, err
	}
	probes, err := runProbes(x)
	rep.fill(x, perLayer, x.perLayerValues(untraced, probes))
	if err != nil {
		return rep, err
	}
	if err := os.MkdirAll(filepath.Dir(traceOut), 0o755); err != nil {
		return rep, err
	}
	f, err := os.Create(traceOut)
	if err != nil {
		return rep, err
	}
	if err := x.writeChromeTrace(f); err != nil {
		f.Close()
		return rep, err
	}
	return rep, f.Close()
}

// runWorkload runs the workload's phases, then the closing audit and fsck.
func (x *run) runWorkload(wl workloadDef) error {
	w, err := wl.run(x)
	if x.host0 != 0 {
		x.endMeasured()
	}
	if err != nil {
		if errors.Is(err, errDeadline) {
			return err
		}
		return fmt.Errorf("%s: %w", wl.name, err)
	}
	x.check("final state", verifyMachine(w.m))
	return nil
}

// report is the full result of one invocation: what the contract's last
// line carries, plus everything needed to compare two result files without
// guessing (seed, scale, host shape, sample counts, percentile rules).
type report struct {
	Workload  string                  `json:"workload"`
	Meta      meta                    `json:"meta"`
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	FirstFail string                  `json:"first_failure,omitempty"`
	Metrics   map[string]reportMetric `json:"metrics"`
	order     []string
	inexact   bool // the workload's virtual values do not repeat exactly
}

type meta struct {
	Seed       int64   `json:"seed"`
	Scale      string  `json:"scale"`
	Seconds    int     `json:"seconds"`
	Traced     bool    `json:"traced"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GCPercent  int     `json:"gc_percent"`
	BallastMiB int     `json:"heap_ballast_mib"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	HostS      float64 `json:"host_s"` // wall time of the whole invocation
	// Slowdown of the host over the run against the quiet reference sandbox
	// (calib.go); every host-clock value is divided by the slowdown around it.
	HostSlowdown float64 `json:"host_slowdown"`
	CalibS       float64 `json:"calib_s"` // host seconds the run spent timing the yardstick
}

type reportMetric struct {
	Value  float64 `json:"value"`
	Raw    float64 `json:"raw,omitempty"` // end-to-end host-clock metrics: the value as the clock read it, unscaled
	Unit   string  `json:"unit"`
	Clock  string  `json:"clock"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Exact  bool    `json:"exact"`
	N      int     `json:"n"`
	Rule   string  `json:"rule"`
	Phase  string  `json:"phase"` // part of the run the samples come from: main, coda.*, or setup, probe, run
}

func newReport(wl workloadDef, seed int64, sz sizes, traced bool) *report {
	return &report{
		Workload: wl.name,
		inexact:  wl.inexact,
		Meta: meta{
			Seed: seed, Scale: sz.scale, Seconds: sz.seconds, Traced: traced,
			NProc: runtime.NumCPU(), GOMAXPROCS: hostProcs, GCPercent: gcPercent, BallastMiB: ballastBytes >> 20, GoVersion: runtime.Version(), Commit: commit(),
		},
		Metrics: make(map[string]reportMetric),
	}
}

// commit is the VCS revision the binary was built from, when the build
// recorded one (a checkout that is not a repository records none).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func (r *report) fill(x *run, defs []metricDef, vals map[string]value) {
	r.Attempted, r.Failed, r.FirstFail = x.attempted, x.failed, x.firstFail
	r.Correct = x.failed == 0 && x.attempted > 0
	r.Meta.HostS = time.Since(hostEpoch).Seconds()
	r.Meta.HostSlowdown = x.cal.overall()
	r.Meta.CalibS = float64(x.cal.spent) / 1e9
	raw := x.rawEndToEnd()
	for _, d := range defs {
		v := vals[d.name]
		r.Metrics[d.name] = reportMetric{
			Value: v.v, Raw: raw[d.name], Unit: d.unit, Clock: d.clock, Better: d.better, Bound: d.bound, Exact: d.exact && !r.inexact, N: v.n, Rule: v.rule, Phase: v.phase,
		}
		r.order = append(r.order, d.name)
	}
}

func (r *report) print(w *os.File) {
	fmt.Fprintf(w, "%s  seed=%d scale=%s seconds=%d traced=%v  nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		r.Workload, r.Meta.Seed, r.Meta.Scale, r.Meta.Seconds, r.Meta.Traced,
		r.Meta.NProc, r.Meta.GOMAXPROCS, r.Meta.GoVersion, r.Meta.Commit)
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-36s %16.6g %-10s %-5s %-14s n=%-8d %s", name, m.Value, m.Unit, m.Clock, m.Phase, m.N, m.Rule)
		if m.Raw != 0 {
			fmt.Fprintf(w, "  (read %.6g)", m.Raw)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d host_s=%.2f host_slowdown=%.3f calib_s=%.2f\n", r.Attempted, r.Failed, r.Meta.HostS, r.Meta.HostSlowdown, r.Meta.CalibS)
	if r.FirstFail != "" {
		fmt.Fprintf(w, "  first failure: %s\n", r.FirstFail)
	}
}

func (r *report) writeFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResultLine prints the one JSON object the benchmark contract reads.
func (r *report) printResultLine(w *os.File) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv, len(r.Metrics))
	for name, m := range r.Metrics {
		ms[name] = mv{m.Value, m.Unit}
	}
	b, _ := json.Marshal(map[string]any{ // marshalling plain numbers and strings cannot fail
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": ms,
	})
	fmt.Fprintf(w, "%s\n", b)
}

// manifestJSON is BENCHMARK.json, printed from the tables in this package.
func manifestJSON() []byte {
	type wj struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type ej struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type lj struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wj     `json:"workloads"`
		EndToEnd   []ej     `json:"end_to_end"`
		PerLayer   []lj     `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wj{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, ej{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, lj{d.name, d.unit, d.better})
	}
	b, _ := json.MarshalIndent(m, "", "  ") // plain strings and numbers
	return append(b, '\n')
}

// runSeconds is the -seconds the driver passes: the full-scale counts are
// sized for it.
const runSeconds = 10

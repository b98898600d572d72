package main

// The `sls metrics` and `sls top` verbs: the telemetry plane's CLI
// surface.
//
// `sls metrics` runs the crash demo (fleet.go: counter app, cadence
// checkpoints, a power cut, a lazy restore, continue) on a telemetry-enabled
// machine whose store is sampled on a fixed cadence, then exports it as
// Prometheus text or the deterministic JSON snapshot. No image file is
// touched; the run is its own world, like `sls trace`.
//
// `sls top` drives the same demo fleet as `sls fleet status` but renders
// the end state as a per-machine metrics table — checkpoints, stop-time
// p99, WAL commits, restores, replica syncs — with the coordinator's fleet
// counters and any SLO breaches below it.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"aurora/internal/scenario"
	"aurora/internal/telemetry"
	"aurora/internal/trace"
)

func cmdMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	name := fs.String("name", "demo", "application name")
	steps := fs.Int64("steps", 200, "demo app steps per phase")
	sampleEvery := fs.Int64("sample-every", 20, "steps between registry samples")
	format := fs.String("format", "prom", "output format: prom or json")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	if *format != "prom" && *format != "json" {
		return fmt.Errorf("unknown -format %q (want prom or json)", *format)
	}

	m, _, err := crashDemo(*name, *steps,
		scenario.MachineDecl{Name: "demo-machine", StorageMB: 1024},
		&scenario.TelemetryDecl{SampleEveryMS: *sampleEvery})
	if err != nil {
		return err
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if *format == "json" {
		return telemetry.WriteJSON(w, m.Metrics.Snapshot(m.Name()))
	}
	return m.Metrics.WritePrometheus(w, m.Name())
}

func cmdTop(args []string) error {
	h, res, err := runDemoFleet("top", args)
	if err != nil {
		return err
	}
	// The snapshot lists the machines in declaration order, then the
	// coordinator's own store as "fleet".
	members := res.Metrics.Machines
	coord := members[len(members)-1]

	fmt.Printf("%-8s %-5s %8s %6s %10s %6s %9s %6s\n",
		"MACHINE", "UP", "LOAD", "CKPTS", "STOP-P99", "WAL", "RESTORES", "SYNCS")
	for _, m := range members[:len(members)-1] {
		up := "yes"
		if n, ok := h.Coordinator().Node(m.Machine); ok && !n.Alive() {
			up = "DEAD"
		}
		fmt.Printf("%-8s %-5s %8d %6d %10s %6d %9d %6d\n",
			m.Machine, up,
			metric(coord.Gauges, "fleet.load."+m.Machine),
			metric(m.Counters, "sls.ckpt.total"),
			nsStr(p99(m.Histograms, "sls.stop.ns")),
			metric(m.Counters, "sls.wal.commits"),
			metric(m.Counters, "sls.restores"),
			metric(m.Counters, "sls.replica.syncs"))
	}
	fmt.Printf("\nfleet: alive=%d deaths=%d failovers=%d reseeds=%d orphans=%d sync-errors=%d\n",
		metric(coord.Gauges, "fleet.alive"),
		metric(coord.Counters, "fleet.deaths"),
		metric(coord.Counters, "fleet.failovers"),
		metric(coord.Counters, "fleet.reseeds"),
		metric(coord.Counters, "fleet.orphans"),
		metric(coord.Counters, "fleet.sync_errors"))
	if failover := p99(coord.Histograms, "fleet.failover.ns"); failover > 0 {
		fmt.Printf("fleet: failover p99 %s, ckpt stop p99 %s fleet-wide\n",
			nsStr(failover), nsStr(p99(res.Metrics.Merged, "sls.stop.ns")))
	}
	if len(res.SLOBreaches) > 0 {
		fmt.Println()
		for _, b := range res.SLOBreaches {
			fmt.Printf("BREACH %s\n", b.Breach)
		}
	} else {
		fmt.Println("slo: all objectives met")
	}
	return nil
}

// metric reads one counter or gauge out of a snapshot list; 0 when absent.
func metric(list []trace.NamedValue, name string) int64 {
	for _, v := range list {
		if v.Name == name {
			return v.Value
		}
	}
	return 0
}

// p99 reads one histogram's p99 out of a snapshot list; 0 when absent.
func p99(list []trace.HistSnapshot, name string) int64 {
	for _, h := range list {
		if h.Name == name {
			return h.P99
		}
	}
	return 0
}

// nsStr renders a nanosecond quantity compactly for the table.
func nsStr(ns int64) string {
	switch d := time.Duration(ns); {
	case ns <= 0:
		return "-"
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fus", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

package main

// The `sls metrics` and `sls top` verbs: the telemetry plane's CLI
// surface.
//
// `sls metrics` runs a self-contained demo — attach, periodic
// checkpoints, a power cut, restore, continue — on a fresh
// telemetry-enabled machine, sampling its metric store on a fixed cadence,
// then exports it as Prometheus text or the deterministic JSON snapshot.
// No image file is touched; the run is its own world, like `sls trace`.
//
// `sls top` drives the same instrumented demo fleet as `sls fleet
// status` but renders the end state as a per-machine metrics table —
// checkpoints, stop-time p99, WAL commits, restores, replica syncs —
// with the coordinator's fleet counters and any SLO breaches below it.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"aurora"
	"aurora/internal/telemetry"
)

func cmdMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	name := fs.String("name", "demo", "application name")
	steps := fs.Int("steps", 200, "demo app steps per phase")
	sampleEvery := fs.Int("sample-every", 20, "steps between registry samples")
	format := fs.String("format", "prom", "output format: prom or json")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	if *format != "prom" && *format != "json" {
		return fmt.Errorf("unknown -format %q (want prom or json)", *format)
	}

	m, err := aurora.NewMachine(aurora.Config{
		StorageBytes: 1 << 30, Name: "demo-machine", Telemetry: true,
	})
	if err != nil {
		return err
	}
	p := m.Spawn(*name)
	if _, err := p.Mmap(counterRegion, aurora.ProtRead|aurora.ProtWrite, false); err != nil {
		return err
	}
	g, err := m.Attach(*name, p)
	if err != nil {
		return err
	}
	sampled := func(m *aurora.Machine, p *aurora.Proc, g *aurora.Group) error {
		for done := 0; done < *steps; done += *sampleEvery {
			n := *sampleEvery
			if rem := *steps - done; rem < n {
				n = rem
			}
			if _, err := stepCounter(p, m, n, g); err != nil {
				return err
			}
			m.Metrics.Sample()
		}
		return nil
	}
	if err := sampled(m, p, g); err != nil {
		return err
	}
	if _, err := g.Checkpoint(aurora.CkptIncremental); err != nil {
		return err
	}
	if err := g.Barrier(); err != nil {
		return err
	}
	m2, err := m.Crash() // the registry rides across the reboot
	if err != nil {
		return err
	}
	g2, _, err := m2.RestoreLazily(*name)
	if err != nil {
		return err
	}
	if err := sampled(m2, g2.Procs()[0], g2); err != nil {
		return err
	}
	m2.Metrics.Sample()

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
		return telemetry.WriteJSON(w, m2.Metrics.Snapshot(m2.Name()))
	}
	return m2.Metrics.WritePrometheus(w, m2.Name())
}

func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	nMachines := fs.Int("machines", 4, "fleet size")
	nGroups := fs.Int("groups", 3, "managed groups (first machines get one each)")
	ticks := fs.Int("ticks", 40, "drive rounds (1ms of virtual time each)")
	kill := fs.String("kill", "", "machine to kill at the halfway tick")
	fs.Parse(args)

	d, err := buildFleetDemo(*nMachines, *nGroups)
	if err != nil {
		return err
	}
	if err := d.run(*ticks, *kill, nil); err != nil {
		return err
	}

	fmt.Printf("%-8s %-5s %8s %6s %10s %6s %9s %6s\n",
		"MACHINE", "UP", "LOAD", "CKPTS", "STOP-P99", "WAL", "RESTORES", "SYNCS")
	coord := d.coordReg.Store()
	for i, m := range d.machines {
		name := d.names[i]
		up := "yes"
		if d.killed[name] {
			up = "DEAD"
		}
		obs := m.Tracer
		fmt.Printf("%-8s %-5s %8d %6d %10s %6d %9d %6d\n",
			name, up,
			coord.GaugeValue("fleet.load."+name),
			obs.CounterValue("sls.ckpt.total"),
			nsStr(obs.Quantile("sls.stop.ns", 0.99)),
			obs.CounterValue("sls.wal.commits"),
			obs.CounterValue("sls.restores"),
			obs.CounterValue("sls.replica.syncs"))
	}
	fmt.Printf("\nfleet: alive=%d deaths=%d failovers=%d reseeds=%d orphans=%d sync-errors=%d\n",
		coord.GaugeValue("fleet.alive"),
		coord.CounterValue("fleet.deaths"),
		coord.CounterValue("fleet.failovers"),
		coord.CounterValue("fleet.reseeds"),
		coord.CounterValue("fleet.orphans"),
		coord.CounterValue("fleet.sync_errors"))
	if p99 := coord.Quantile("fleet.failover.ns", 0.99); p99 > 0 {
		fmt.Printf("fleet: failover p99 %s, ckpt stop p99 %s fleet-wide\n",
			nsStr(p99), nsStr(d.fleet.Quantile("sls.stop.ns", 0.99)))
	}
	if breaches := d.watch.Breaches(); len(breaches) > 0 {
		fmt.Println()
		for _, b := range breaches {
			fmt.Printf("BREACH %s\n", b)
		}
	} else {
		fmt.Println("slo: all objectives met")
	}
	return nil
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

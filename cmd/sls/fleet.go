package main

// The demo verbs — `sls fleet status`, `sls top`, `sls metrics`, `sls trace`
// — need no image file: each declares a scenario in Go from its flags and
// runs it on the scenario engine (internal/scenario), the same harness
// `sls scenario run FILE` drives. What they print comes from the run's
// Result, the coordinator's status page and the machines' observers, so the
// quickest way to see the placement layer or the telemetry plane work is
// also a scenario one could write down as a file.

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"aurora"
	"aurora/internal/scenario"
)

func cmdFleet(args []string) error {
	if len(args) < 1 || args[0] != "status" {
		return fmt.Errorf("usage: sls fleet status [-machines N] [-groups G] [-ticks T] [-kill MACHINE]")
	}
	return cmdFleetStatus(args[1:])
}

// runDemoFleet is the fleet the fleet and top verbs share: N machines m0…
// under the placement coordinator, a counter group g<i> on each of the first
// G, every machine's store sampled each 1 ms tick, and the coordinator
// watched under two objectives — failovers complete within 50 ms of virtual
// time, no group is ever left orphaned. With -kill, that machine dies at the
// halfway tick and the heartbeat detector has to notice.
func runDemoFleet(verb string, args []string) (*scenario.Harness, *scenario.Result, error) {
	fs := flag.NewFlagSet(verb, flag.ExitOnError)
	nMachines := fs.Int("machines", 4, "fleet size")
	nGroups := fs.Int("groups", 3, "managed groups (first machines get one each)")
	ticks := fs.Int64("ticks", 40, "drive rounds (1ms of virtual time each)")
	kill := fs.String("kill", "", "machine to kill at the halfway tick")
	fs.Parse(args)
	if *nMachines < 1 || *nGroups < 1 || *nGroups > *nMachines {
		return nil, nil, fmt.Errorf("need 1 <= groups (%d) <= machines (%d)", *nGroups, *nMachines)
	}

	sc := &scenario.Scenario{
		Name:       "demo-fleet",
		DurationMS: *ticks,
		Placement:  &scenario.PlacementDecl{SyncEveryMS: 5, HeartbeatEveryMS: 2},
		Telemetry: &scenario.TelemetryDecl{SampleEveryMS: 1, SLOs: []scenario.SLODecl{
			{Name: "failover-p99", Metric: "fleet.failover.ns", Kind: "p99-under", Bound: int64(50 * time.Millisecond)},
			{Name: "no-orphans", Metric: "fleet.orphans", Kind: "max-under", Bound: 1},
		}},
		Assertions: []scenario.AssertionDecl{{Kind: "fleet-health"}},
	}
	for i := 0; i < *nMachines; i++ {
		name := fmt.Sprintf("m%d", i)
		sc.Machines = append(sc.Machines, scenario.MachineDecl{Name: name, StorageMB: 64})
		if i < *nGroups {
			sc.Workloads = append(sc.Workloads, scenario.WorkloadDecl{
				Machine: name, Group: fmt.Sprintf("g%d", i), App: "counter", OpsPerTick: 20,
			})
		}
	}
	if *kill != "" {
		sc.Events = []scenario.EventDecl{{AtMS: *ticks / 2, Kind: "machine-dies", Machine: *kill}}
	}
	h, err := scenario.Start(sc, scenario.RunOptions{})
	if err != nil {
		return nil, nil, err
	}
	return h, h.Finish(), nil
}

func cmdFleetStatus(args []string) error {
	h, res, err := runDemoFleet("fleet status", args)
	if err != nil {
		return err
	}
	// The decision log: the kill, then what the coordinator did about it.
	for _, e := range res.Events {
		line := fmt.Sprintf("[%8.3fms] %-12s %s", float64(e.FiredNS)/1e6, strings.TrimPrefix(e.Kind, "fleet-"), e.Target)
		if e.Err != "" {
			line += " err=" + e.Err
		}
		fmt.Println(line)
	}
	fmt.Print(h.Coordinator().Status())
	return nil
}

// crashDemo is the single-machine script `sls metrics` and `sls trace`
// share: the counter app checkpointing every 10 ms, one increment per 1 ms
// tick for steps ticks, then a checkpoint, a power cut and a lazy restore,
// and steps ticks more. It returns the machine's post-reboot incarnation —
// the observer and the metric series ride across the cut — and the counter
// as the restored process holds it.
func crashDemo(name string, steps int64, md scenario.MachineDecl, td *scenario.TelemetryDecl) (*aurora.Machine, uint64, error) {
	sc := &scenario.Scenario{
		Name:       "demo-crash",
		DurationMS: 2 * steps,
		Machines:   []scenario.MachineDecl{md},
		Workloads: []scenario.WorkloadDecl{{
			Machine: md.Name, Group: name, App: "counter", OpsPerTick: 1, CheckpointEveryMS: 10,
		}},
		Telemetry: td,
		Events: []scenario.EventDecl{
			{AtMS: steps, Kind: "checkpoint", Group: name},
			{AtMS: steps, Kind: "power-cut", Machine: md.Name},
			{AtMS: steps, Kind: "restore", Machine: md.Name, Group: name, RestoreMode: "lazy"},
		},
		Assertions: []scenario.AssertionDecl{{Kind: "group-on", Machine: md.Name, Group: name}},
	}
	h, err := scenario.Start(sc, scenario.RunOptions{})
	if err != nil {
		return nil, 0, err
	}
	if res := h.Finish(); !res.Passed {
		return nil, 0, fmt.Errorf("the demo did not survive its crash:\n%s", res.Summary())
	}
	m := h.Machine(md.Name)
	g, ok := m.Group(name)
	if !ok {
		return nil, 0, fmt.Errorf("group %q is not live after the restore", name)
	}
	v, err := stepCounter(g.Procs()[0], m, 0, nil)
	return m, v, err
}

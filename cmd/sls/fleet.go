package main

// The `sls fleet` verb: the placement coordinator's inspection surface.
// Machine images are single-machine artifacts, so the fleet command runs a
// deterministic in-memory demo fleet — N machines, one counter group each
// under the coordinator — and prints the coordinator's status and decision
// log. With -kill, one machine dies mid-run and the output shows the
// heartbeat detector noticing, the failovers, and the reseeded standbys:
// the quickest way to see the placement layer work without writing a
// scenario file.
//
// The demo fleet runs fully instrumented: every machine carries a
// telemetry registry, the coordinator records its decisions into a fleet
// registry watched by default SLOs, and `sls top` renders the same run as
// a per-machine metrics table.

import (
	"flag"
	"fmt"
	"time"

	"aurora"
	"aurora/internal/clock"
	"aurora/internal/placement"
	"aurora/internal/telemetry"
	"aurora/internal/trace"
	"aurora/internal/vm"
)

func cmdFleet(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: sls fleet status [-machines N] [-groups G] [-ticks T] [-kill MACHINE]")
	}
	switch args[0] {
	case "status":
		return cmdFleetStatus(args[1:])
	default:
		return fmt.Errorf("unknown fleet subcommand %q (want status)", args[0])
	}
}

// demoApp is one managed counter group and its current live process.
type demoApp struct {
	name string
	p    *aurora.Proc
}

// fleetDemo is the deterministic in-memory fleet the fleet/top verbs
// drive: machines under one virtual clock, managed groups, and the
// telemetry plane (per-machine registries, an instrumented coordinator,
// default fleet SLOs).
type fleetDemo struct {
	clk      *clock.Virtual
	coord    *placement.Coordinator
	machines []*aurora.Machine
	names    []string
	apps     []*demoApp
	killed   map[string]bool
	fleet    *telemetry.Fleet
	coordReg *telemetry.Registry // samples the coordinator's own observer
	watch    *telemetry.Watch
}

// defaultFleetSLOs are the objectives the demo fleet is watched under:
// failovers must complete under 50ms of virtual time, and no group may
// ever be left orphaned.
func defaultFleetSLOs() []telemetry.SLO {
	return []telemetry.SLO{
		{Name: "failover-p99", Metric: "fleet.failover.ns", Kind: telemetry.SLOP99Under, Bound: int64(50 * time.Millisecond)},
		{Name: "no-orphans", Metric: "fleet.orphans", Kind: telemetry.SLOMaxUnder, Bound: 1},
	}
}

func buildFleetDemo(nMachines, nGroups int) (*fleetDemo, error) {
	if nMachines < 1 || nGroups < 1 || nGroups > nMachines {
		return nil, fmt.Errorf("need 1 <= groups (%d) <= machines (%d)", nGroups, nMachines)
	}
	d := &fleetDemo{
		clk:    clock.NewVirtual(),
		killed: map[string]bool{},
		fleet:  telemetry.NewFleet(),
	}
	d.coord = placement.New(d.clk, placement.Config{
		SyncEvery:      5 * time.Millisecond,
		HeartbeatEvery: 2 * time.Millisecond,
	})
	d.coordReg = telemetry.New(trace.NewMetricsOnly(d.clk))
	d.coord.Instrument(d.coordReg.Store())
	d.watch = telemetry.NewWatch(defaultFleetSLOs())
	d.coord.WatchSLO(d.watch)
	for i := 0; i < nMachines; i++ {
		name := fmt.Sprintf("m%d", i)
		m, err := aurora.NewMachine(aurora.Config{
			StorageBytes: 64 << 20, Clock: d.clk, Name: name, Telemetry: true,
		})
		if err != nil {
			return nil, err
		}
		d.machines = append(d.machines, m)
		d.names = append(d.names, name)
		d.fleet.Add(name, m.Metrics)
		if _, err := d.coord.AddMachine(name, m); err != nil {
			return nil, err
		}
	}
	d.fleet.Add("fleet", d.coordReg)
	// Manage only once every machine is registered — the first group's
	// standby has to land somewhere.
	for i := 0; i < nGroups; i++ {
		m := d.machines[i]
		group := fmt.Sprintf("g%d", i)
		p := m.Spawn(group)
		if _, err := p.Mmap(1<<20, aurora.ProtRead|aurora.ProtWrite, false); err != nil {
			return nil, err
		}
		if _, err := m.Attach(group, p); err != nil {
			return nil, err
		}
		d.apps = append(d.apps, &demoApp{name: group, p: p})
		if _, err := d.coord.Manage(group, fmt.Sprintf("m%d", i), nil); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// run drives the fleet for the given number of 1ms ticks, killing the
// named machine at the halfway point. Each tick the telemetry plane is
// sampled and the SLO watch evaluated; onEvent (optional) sees every
// coordinator decision as it fires.
func (d *fleetDemo) run(ticks int, kill string, onEvent func(placement.Event)) error {
	step := func(a *demoApp) error {
		var buf [8]byte
		for i := 0; i < 20; i++ {
			if err := a.p.ReadMem(vm.UserBase, buf[:]); err != nil {
				return err
			}
			buf[0]++
			if err := a.p.WriteMem(vm.UserBase, buf[:]); err != nil {
				return err
			}
		}
		d.coord.RecordOps(a.name, 20)
		return nil
	}
	for t := 0; t < ticks; t++ {
		if kill != "" && t == ticks/2 {
			if err := d.coord.KillMachine(kill); err != nil {
				return err
			}
			d.killed[kill] = true
			if onEvent != nil {
				fmt.Printf("[%8.3fms] kill       node=%s\n",
					float64(d.clk.Now().Microseconds())/1000, kill)
			}
		}
		for _, a := range d.apps {
			as, ok := d.coord.Assignment(a.name)
			if !ok || as.Orphaned || d.killed[as.Primary] {
				continue
			}
			if err := step(a); err != nil {
				return fmt.Errorf("group %s: %w", a.name, err)
			}
		}
		d.clk.Advance(time.Millisecond)
		for _, e := range d.coord.Tick() {
			if onEvent != nil {
				onEvent(e)
			}
			if e.G != nil {
				for _, a := range d.apps {
					if a.name == e.Group {
						if procs := e.G.Procs(); len(procs) == 1 {
							a.p = procs[0]
						}
					}
				}
			}
		}
		for _, m := range d.machines {
			m.Metrics.Sample()
		}
		d.coordReg.Sample()
		d.watch.Eval(d.coordReg, d.clk.Now())
	}
	return nil
}

func cmdFleetStatus(args []string) error {
	fs := flag.NewFlagSet("fleet status", flag.ExitOnError)
	nMachines := fs.Int("machines", 4, "fleet size")
	nGroups := fs.Int("groups", 3, "managed groups (first machines get one each)")
	ticks := fs.Int("ticks", 40, "drive rounds (1ms of virtual time each)")
	kill := fs.String("kill", "", "machine to kill at the halfway tick")
	fs.Parse(args)

	d, err := buildFleetDemo(*nMachines, *nGroups)
	if err != nil {
		return err
	}
	if err := d.run(*ticks, *kill, func(e placement.Event) { fmt.Println(e) }); err != nil {
		return err
	}
	fmt.Print(d.coord.Status())
	return nil
}

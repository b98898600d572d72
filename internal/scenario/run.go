package scenario

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"time"

	"aurora"
	"aurora/internal/clock"
	"aurora/internal/flight"
	"aurora/internal/net"
	"aurora/internal/placement"
	"aurora/internal/telemetry"
	"aurora/internal/trace"
)

// RunOptions tune one scenario execution.
type RunOptions struct {
	// Seed overrides the scenario's declared seed (0 keeps it; a scenario
	// with no seed defaults to 1).
	Seed int64
	// Stretch multiplies the scenario timeline — the duration, every
	// event's fire time, and partition windows — so a nightly soak run
	// keeps the same relative event script over a longer steady state
	// (cadences are rates and stay put, so a stretched run checkpoints
	// and syncs proportionally more). 0 and 1 both mean no stretching.
	Stretch int64
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// machineState is one fleet member at its current incarnation. The aurora
// Machine pointer is replaced on every reboot; declarations and bindings
// reference this wrapper so they always see the live incarnation.
type machineState struct {
	decl MachineDecl
	m    *aurora.Machine
	// watch judges the machine's store against the declared SLOs; nil
	// without a telemetry block.
	watch *telemetry.Watch
}

// groupState is one workload's live binding.
type groupState struct {
	key   string // the group name; "filebench/<i>" for a group-less workload
	decl  WorkloadDecl
	host  *machineState
	g     *aurora.Group // nil for filebench (no consistency group)
	app   appBinding
	alive bool

	ops          int64
	ckpts        int64
	walCommits   int64
	lastCkptMS   int64
	stopTimes    []time.Duration
	restoreTimes []time.Duration
	// durableWindows is, per checkpoint, the span from checkpoint start to
	// the commit being durable on media — the loss window WAL-first commit
	// is designed to shrink.
	durableWindows []time.Duration
}

// replState is one declared replication's live handle.
type replState struct {
	decl  ReplDecl
	rep   *aurora.Replica
	conn  *net.Conn
	to    *machineState
	alive bool

	lastSyncMS int64
}

// Harness is one running scenario: the fleet booted on one virtual clock,
// every workload bound, replications seeded and the coordinator managing
// its groups. Run builds one, drives its timeline and judges it.
type Harness struct {
	sc   *Scenario
	opts RunOptions
	seed int64
	clk  *clock.Virtual

	// Lookup by name, and the declaration order everything iterates in —
	// never over a map — so a seed replays bit-identically.
	machines    map[string]*machineState
	machineList []*machineState
	groups      map[string]*groupState
	groupList   []*groupState
	repls       map[string]*replState
	replList    []*replState

	// coord is the fleet coordinator, non-nil when the scenario declares a
	// placement block; it owns every group's standby.
	coord *placement.Coordinator

	// tele is the metrics plane, non-nil when the scenario declares a
	// telemetry block.
	tele *teleState

	res *Result
}

// teleState is the runner's metrics plane: the SLO rules, the stores they
// are judged in — one per machine (hung off aurora.Machine by
// Config.Telemetry) and, in placement mode, the coordinator's own — and the
// fleet aggregation the snapshot and metric assertions read.
type teleState struct {
	decl       *TelemetryDecl
	rules      []telemetry.SLO
	fleet      *telemetry.Fleet
	members    []teleMember
	lastSample int64 // virtual ms of the last sampler tick
}

// teleMember is one sampled store with the watch judging it. The
// coordinator's is the member "fleet" with no machine: fleet.* metrics are
// judged where they live.
type teleMember struct {
	name  string
	reg   *telemetry.Registry
	watch *telemetry.Watch
	ms    *machineState
}

// add enrols a store under the declared rules and returns its watch.
func (t *teleState) add(name string, reg *telemetry.Registry, ms *machineState) *telemetry.Watch {
	w := telemetry.NewWatch(t.rules)
	t.members = append(t.members, teleMember{name, reg, w, ms})
	t.fleet.Add(name, reg)
	return w
}

// Run validates the scenario, assembles its fleet, runs the timeline to its
// end and evaluates the assertions. Setup failures (a machine that cannot
// boot, a workload that cannot bind) return an error; runtime failures
// along the way are recorded in the Result and judged by the assertions.
func Run(sc *Scenario, opts RunOptions) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	r := &Harness{
		sc:       sc,
		opts:     opts,
		machines: make(map[string]*machineState),
		groups:   make(map[string]*groupState),
		repls:    make(map[string]*replState),
	}
	r.seed = cmp.Or(opts.Seed, sc.Seed, 1)
	r.res = &Result{Scenario: sc.Name, Seed: r.seed, Expect: cmp.Or(sc.Expect, ExpectPass)}
	if err := r.setup(); err != nil {
		return nil, err
	}
	r.drive()
	r.finish()
	return r.res, nil
}

func (r *Harness) logf(format string, args ...any) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, args...)
	}
}

// subseed derives a component seed from the scenario seed and a stable
// label, so each machine, generator, and wire has an independent PRNG
// stream that does not shift when unrelated declarations change.
func subseed(base int64, label string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", base, label)
	s := int64(h.Sum64() & 0x7fffffffffffffff)
	if s == 0 {
		s = 1
	}
	return s
}

func (r *Harness) setup() error {
	// One virtual timeline for the whole fleet: cross-machine event times
	// ("cut machine b at t=40ms") are well-defined and replayable.
	r.clk = clock.NewVirtual()
	for _, md := range r.sc.Machines {
		cfg := aurora.Config{
			Name:         md.Name,
			StorageBytes: cmp.Or(md.StorageMB, 256) << 20,
			Clock:        r.clk,
			Trace:        md.Trace,
			Telemetry:    r.sc.Telemetry != nil,
			// Every scenario machine carries a (disarmed) fault device so
			// events can cut power or rot media at any point.
			Fault: &aurora.FaultPlan{
				Seed:        subseed(r.seed, "fault/"+md.Name),
				CutAtSubmit: -1,
			},
		}
		m, err := aurora.NewMachine(cfg)
		if err != nil {
			return fmt.Errorf("machine %q: %w", md.Name, err)
		}
		ms := &machineState{decl: md, m: m}
		r.machines[md.Name] = ms
		r.machineList = append(r.machineList, ms)
	}

	if td := r.sc.Telemetry; td != nil {
		r.tele = &teleState{decl: td, fleet: telemetry.NewFleet()}
		for _, sd := range td.SLOs {
			r.tele.rules = append(r.tele.rules, telemetry.SLO{
				Name: sd.Name, Metric: sd.Metric, Kind: lookup(sloKinds, sd.Kind).do, Bound: sd.Bound,
			})
		}
		for _, ms := range r.machineList {
			ms.watch = r.tele.add(ms.decl.Name, ms.m.Metrics, ms)
			ms.m.AttachSLO(ms.watch)
		}
	}

	for i, wd := range r.sc.Workloads {
		ms := r.machines[wd.Machine]
		gs := &groupState{key: wd.Group, decl: wd, host: ms, alive: true}
		if gs.key == "" {
			gs.key = fmt.Sprintf("filebench/%d", i)
		}
		genSeed := subseed(r.seed, fmt.Sprintf("gen/%d/%s", i, wd.Group))
		var err error
		gs.app, gs.g, err = lookup(appKinds, wd.App).do(ms, wd, genSeed, r.tick())
		if err != nil {
			return fmt.Errorf("workload %q on %q: %w", wd.App, wd.Machine, err)
		}
		gs.applyOptions()
		r.groups[gs.key] = gs
		r.groupList = append(r.groupList, gs)
	}

	for _, rd := range r.sc.Replications {
		src := r.machines[rd.From]
		dst := r.machines[rd.To]
		gs := r.groups[rd.Group]
		conn := src.m.NewConn(&aurora.NetConfig{
			Fwd: aurora.NetPlan{
				Seed:        subseed(r.seed, "wire/fwd/"+rd.Group),
				DropProb:    rd.Drop,
				DupProb:     rd.Dup,
				ReorderProb: rd.Reorder,
				CorruptProb: rd.Corrupt,
			},
			Rev: aurora.NetPlan{
				Seed:     subseed(r.seed, "wire/rev/"+rd.Group),
				DropProb: rd.Drop,
			},
		})
		rep, err := gs.g.ReplicateToVia(dst.m.SLS, conn)
		if err != nil {
			// A lossy wire can cut off even the seed transfer; the handle
			// stays live and a later sync resumes it.
			if rep == nil {
				return fmt.Errorf("replicating %q: %w", rd.Group, err)
			}
			r.res.Errors = append(r.res.Errors, fmt.Sprintf("seed of %q interrupted: %v", rd.Group, err))
		}
		rs := &replState{decl: rd, rep: rep, conn: conn, to: dst, alive: true}
		r.repls[rd.Group] = rs
		r.replList = append(r.replList, rs)
	}

	if p := r.sc.Placement; p != nil {
		r.coord = placement.New(r.clk, p.EffectiveConfig())
		if r.tele != nil {
			// The coordinator gets its own observer: fleet.* counters and
			// failover/migration latency histograms live in its store, and
			// its placement-decision spans join the merged timeline as the
			// "coordinator" process.
			reg := telemetry.New(trace.New(r.clk))
			r.coord.Instrument(reg.Store())
			r.coord.WatchSLO(r.tele.add("fleet", reg, nil))
		}
		for _, ms := range r.machineList {
			if _, err := r.coord.AddMachine(ms.decl.Name, ms.m); err != nil {
				return fmt.Errorf("placement: %w", err)
			}
		}
		// Manage every group workload: the coordinator picks and seeds the
		// standby, and drives the app between migration pre-copy rounds.
		for _, gs := range r.groupList {
			if gs.g == nil {
				continue // filebench: no consistency group to protect
			}
			if _, err := r.coord.Manage(gs.key, gs.decl.Machine, gs.work); err != nil {
				return fmt.Errorf("placement: managing %q: %w", gs.key, err)
			}
		}
	}
	return nil
}

func (r *Harness) tick() time.Duration {
	return time.Duration(max(r.sc.TickMS, 1)) * time.Millisecond
}

func (r *Harness) stretch() int64 { return max(r.opts.Stretch, 1) }

// drive is the deterministic main loop: one shared virtual timeline,
// advanced tick by tick; events fire when their time arrives, workloads
// step in declaration order, cadences (checkpoints, syncs) trigger on
// their periods. Everything iterates in declaration order — never over a
// map — so a seed replays bit-identically.
func (r *Harness) drive() {
	clk := r.clk
	end := time.Duration(r.sc.DurationMS*r.stretch()) * time.Millisecond
	tick := r.tick()

	// Events fire in (time, declaration) order.
	events := slices.Clone(r.sc.Events)
	slices.SortStableFunc(events, func(a, b EventDecl) int { return cmp.Compare(a.AtMS, b.AtMS) })

	for clk.Now() < end {
		target := clk.Now() + tick
		nowMS := int64(clk.Now() / time.Millisecond)

		for len(events) > 0 && events[0].AtMS*r.stretch() <= nowMS {
			r.fire(events[0])
			events = events[1:]
		}

		for _, gs := range r.groupList {
			if !gs.alive {
				continue
			}
			if err := gs.work(); err != nil {
				r.recordErr("workload %s: %v", gs.key, err)
				gs.alive = false
				continue
			}
			if r.coord != nil && gs.g != nil {
				r.coord.RecordOps(gs.key, gs.decl.EffectiveOpsPerTick())
			}
			if gs.decl.CheckpointEveryMS > 0 && nowMS-gs.lastCkptMS >= gs.decl.CheckpointEveryMS {
				gs.lastCkptMS = nowMS
				r.checkpointGroup(gs)
			}
		}

		for _, rs := range r.replList {
			if !rs.alive || rs.decl.SyncEveryMS <= 0 || nowMS-rs.lastSyncMS < rs.decl.SyncEveryMS {
				continue
			}
			rs.lastSyncMS = nowMS
			r.syncRepl(rs)
		}

		if r.coord != nil {
			r.applyFleetEvents(r.coord.Tick())
		}

		if t := r.tele; t != nil && nowMS-t.lastSample >= t.decl.EffectiveSampleEvery() {
			t.lastSample = nowMS
			r.sampleTelemetry()
		}

		if clk.Now() < target {
			clk.Advance(target - clk.Now())
		}
	}

	// Late events (scheduled at the end: validation admits none past it)
	// still fire once, so a scenario can end on a final checkpoint or audit
	// trigger.
	for _, ev := range events {
		r.fire(ev)
	}
}

// sampleTelemetry is one sampler-cadence tick: every registry snapshots
// its counters/gauges/histogram-p99s into their time series, then the SLO
// watch runs. A fired breach lands in three places at once — the hosting
// machine's flight recorder (slo.breach), its observer's slo.breaches
// counter (counted by Eval; the sls.slo audit family cross-checks counter
// against breach log), and the run result.
func (r *Harness) sampleTelemetry() {
	now := r.clk.Now()
	for _, mem := range r.tele.members {
		mem.reg.Sample()
		for _, b := range mem.watch.Eval(mem.reg, now) {
			if mem.ms != nil {
				mem.ms.m.Flight.Record(int64(now), flight.EvSLOBreach,
					b.Value, b.Bound, int64(now/time.Microsecond), b.SLO)
			}
			r.recordBreach(mem.name, b)
		}
	}
}

func (r *Harness) recordBreach(machine string, b telemetry.Breach) {
	r.res.SLOBreaches = append(r.res.SLOBreaches, SLOBreach{Machine: machine, Breach: b})
	r.logf("slo breach on %s: %s", machine, b)
}

func (r *Harness) recordErr(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.res.Errors = append(r.res.Errors, msg)
	r.logf("error: %s", msg)
}

func (r *Harness) recordEvent(e EventDecl, target string, err error) {
	ev := ExecutedEvent{
		AtMS:    e.AtMS,
		FiredNS: int64(r.clk.Now()),
		Kind:    e.Kind,
		Target:  target,
	}
	line := fmt.Sprintf("t=%dms %s %s", e.AtMS, e.Kind, target)
	if err != nil {
		ev.Err = err.Error()
		line += ": " + ev.Err
	}
	r.res.Events = append(r.res.Events, ev)
	r.logf("%s", line)
}

// checkpointGroup is a workload's cadence checkpoint.
func (r *Harness) checkpointGroup(gs *groupState) {
	if gs.g == nil {
		// Filebench workload: persist the whole store instead.
		if _, err := gs.host.m.Store.Checkpoint(); err != nil {
			r.recordErr("store checkpoint on %s: %v", gs.host.decl.Name, err)
			return
		}
		gs.ckpts++
		return
	}
	if stage, err := r.commit(gs); err != nil {
		r.recordErr("%s %s: %v", stage, gs.key, err)
		gs.alive = false
	}
}

// commit takes one checkpoint of the group in its declared kind, waits for
// it to be durable and books it: its stop time, and the durable window from
// checkpoint start to the commit persisting on media. A failure names the
// stage ("checkpoint" or "barrier") it happened in.
func (r *Harness) commit(gs *groupState) (stage string, err error) {
	start := r.clk.Now()
	st, err := gs.g.Checkpoint(gs.ckptKind())
	if err != nil {
		return "checkpoint", err
	}
	if err := gs.g.Barrier(); err != nil {
		return "barrier", err
	}
	gs.ckpts++
	if st.WALSeq != 0 {
		gs.walCommits++
	}
	gs.stopTimes = append(gs.stopTimes, st.StopTime)
	gs.durableWindows = append(gs.durableWindows, max(st.DurableAt-start, 0))
	return "", nil
}

// ckptKind is the checkpoint kind this workload declared: WAL-first when
// wal_commit is set, a full incremental epoch otherwise.
func (gs *groupState) ckptKind() aurora.CheckpointKind {
	if gs.decl.WALCommit {
		return aurora.CkptWAL
	}
	return aurora.CkptIncremental
}

// applyOptions applies the scenario's group options to a (possibly fresh)
// group incarnation, at setup and after restore/failover/migrate: the
// workload's declared WAL fold cadence.
func (gs *groupState) applyOptions() {
	if gs.g == nil {
		return
	}
	if gs.decl.FoldEvery > 0 {
		gs.g.Options.FoldEvery = int(gs.decl.FoldEvery)
	}
}

// work is one tick of the workload: the declared op rate applied and
// counted. The drive loop calls it every tick; a migration calls it between
// pre-copy rounds, where the pages it dirties become the next round's delta.
func (gs *groupState) work() error {
	n := gs.decl.EffectiveOpsPerTick()
	if err := gs.app.step(n); err != nil {
		return err
	}
	gs.ops += n
	return nil
}

// moved is the one step after a restore, failover or migration (the
// runner's own or the coordinator's) produced a new incarnation g of the
// group on host: the binding follows it, the scenario's options are applied
// to it and the app is rebound to its processes. A declared replication of
// the group still holds the incarnation that is gone — shipping through it
// would replicate a corpse — so it is retired; a later sync event records
// "replication is down". after names the move in the rebind error.
func (r *Harness) moved(gs *groupState, g *aurora.Group, host *machineState, after string) {
	gs.g = g
	gs.host = host
	gs.alive = true
	gs.applyOptions()
	if rs := r.repls[gs.key]; rs != nil && rs.alive {
		rs.rep.Abandon()
		rs.alive = false
	}
	if err := gs.app.rebind(gs); err != nil {
		r.recordErr("rebind %s%s: %v", gs.key, after, err)
		gs.alive = false
	}
}

func (r *Harness) syncRepl(rs *replState) {
	if err := rs.rep.Sync(); err != nil {
		// Expected under partitions: the ship stays pending and the next
		// sync resumes from the standby's high-water mark.
		msg := fmt.Sprintf("sync %s: %v", rs.decl.Group, err)
		r.res.Errors = append(r.res.Errors, msg)
		r.logf("%s", msg)
	}
}

// fire dispatches one timed event to its kind's body.
func (r *Harness) fire(e EventDecl) { lookup(eventKinds, e.Kind).do(r, e) }

func (r *Harness) firePartition(e EventDecl) {
	rs := r.repls[e.Group]
	rs.conn.Pipe().Cut(time.Duration(e.ForMS*r.stretch()) * time.Millisecond)
	r.recordEvent(e, e.Group, nil)
}

func (r *Harness) fireRebalance(e EventDecl) {
	r.recordEvent(e, "fleet", nil)
	r.applyFleetEvents(r.coord.Rebalance())
}

func (r *Harness) fireSync(e EventDecl) {
	rs := r.repls[e.Group]
	if !rs.alive {
		r.recordEvent(e, e.Group, fmt.Errorf("replication is down"))
		return
	}
	r.recordEvent(e, e.Group, rs.rep.Sync())
}

func (r *Harness) firePowerCut(e EventDecl) {
	ms := r.machines[e.Machine]
	m2, err := ms.m.PowerCut(subseed(r.seed, fmt.Sprintf("cut/%s/%d", e.Machine, e.AtMS)), e.Torn, e.DropInFlight)
	r.recordEvent(e, e.Machine, err)
	if err != nil {
		return
	}
	ms.m = m2
	if ms.watch != nil {
		// The registry rode across the reboot but the watch attachment is
		// volatile machine state — re-point the fresh incarnation's auditor
		// at the same watch so the sls.slo cross-check keeps running.
		m2.AttachSLO(ms.watch)
	}
	// Volatile state is gone: every group hosted here is down until an
	// explicit restore (or failover on its standby) brings it back, and
	// every replication touching this machine loses its live handles. A
	// group-less workload (filebench) keeps its state in the file system,
	// which the reboot just recovered — it resumes against the fresh FS.
	for _, gs := range r.groupList {
		if gs.host == ms && gs.decl.Group != "" {
			gs.alive = false
			gs.g = nil
		}
	}
	for _, rs := range r.replList {
		if rs.decl.From == e.Machine || rs.decl.To == e.Machine {
			rs.alive = false
		}
	}
}

// fireMachineDies kills a machine for good: its groups stop producing
// work immediately, but nobody tells the coordinator — the heartbeat
// detector has to notice the silence and fail the groups over.
func (r *Harness) fireMachineDies(e EventDecl) {
	err := r.coord.KillMachine(e.Machine)
	r.recordEvent(e, e.Machine, err)
	if err != nil {
		return
	}
	for _, gs := range r.groupList {
		if gs.host == r.machines[e.Machine] {
			gs.alive = false
			gs.g = nil
		}
	}
}

// applyFleetEvents records coordinator decisions in the result and
// rebinds applications whose group moved (failover or rebalance).
func (r *Harness) applyFleetEvents(evs []placement.Event) {
	for _, e := range evs {
		target := e.Group
		if target == "" {
			target = e.Node
		}
		if e.From != "" || e.To != "" {
			target += " " + e.From + "->" + e.To
		}
		ev := ExecutedEvent{
			AtMS:    int64(e.At / time.Millisecond),
			FiredNS: int64(e.At),
			Kind:    "fleet-" + e.Kind.String(),
			Target:  target,
		}
		if e.Err != nil {
			ev.Err = e.Err.Error()
		}
		r.res.Events = append(r.res.Events, ev)
		r.logf("fleet %s", e)
		if e.G == nil {
			continue
		}
		gs, ok := r.groups[e.Group]
		if !ok {
			continue
		}
		r.moved(gs, e.G, r.machines[e.To], " after fleet "+e.Kind.String())
	}
}

func (r *Harness) fireRestore(e EventDecl) {
	ms := r.machines[e.Machine]
	gs := r.groups[e.Group]
	g, rst, err := pick(restoreModes, e.RestoreMode).do(ms.m, e.Group)
	r.recordEvent(e, e.Machine+"/"+e.Group, err)
	if err != nil {
		return
	}
	gs.restoreTimes = append(gs.restoreTimes, rst.Time)
	r.moved(gs, g, ms, "")
}

func (r *Harness) fireBitRot(e EventDecl) {
	ms := r.machines[e.Machine]
	addrs := ms.m.Store.LivePageAddrs()
	if len(addrs) == 0 {
		r.recordEvent(e, e.Machine, fmt.Errorf("no live pages to rot"))
		return
	}
	offsets := make([]int64, 0, len(e.Pages))
	for _, pg := range e.Pages {
		// Index into the live-page list, modulo its size, so a scenario can
		// say "rot pages 0, 7, 13" without knowing the store layout.
		offsets = append(offsets, addrs[pg%int64(len(addrs))])
	}
	r.recordEvent(e, e.Machine, ms.m.BitRot(offsets...))
}

func (r *Harness) fireMigrate(e EventDecl) {
	gs := r.groups[e.Group]
	if !gs.alive || gs.g == nil {
		r.recordEvent(e, e.Group, fmt.Errorf("group is down"))
		return
	}
	if r.coord != nil {
		// Placement mode: the move goes through the coordinator so its
		// assignment map stays authoritative (it retires the old replica
		// and reseeds a standby from the new primary).
		evs, err := r.coord.MigrateGroup(e.Group, e.To)
		r.recordEvent(e, e.Group+"->"+e.To, err)
		r.applyFleetEvents(evs)
		return
	}
	dst := r.machines[e.To]
	g2, mst, err := gs.host.m.MigrateTo(dst.m, e.Group, int(e.EffectiveRounds()), gs.work)
	r.recordEvent(e, e.Group+"->"+e.To, err)
	if err != nil {
		// A failed migration leaves the source intact: the stream never
		// finished, so the group was neither exited nor forgotten there.
		// It keeps running where it is.
		return
	}
	gs.stopTimes = append(gs.stopTimes, mst.FinalStop)
	r.moved(gs, g2, dst, " after migrate")
}

func (r *Harness) fireFailover(e EventDecl) {
	rs := r.repls[e.Group]
	gs := r.groups[e.Group]
	g2, rst, err := rs.rep.Failover(aurora.RestoreEager)
	r.recordEvent(e, e.Group+"@"+rs.decl.To, err)
	if err != nil {
		return
	}
	gs.restoreTimes = append(gs.restoreTimes, rst.Time)
	// The standby is now the primary; moved retires the old wire.
	r.moved(gs, g2, rs.to, " after failover")
}

func (r *Harness) fireCheckpoint(e EventDecl) {
	if e.Group != "" {
		gs := r.groups[e.Group]
		if !gs.alive || gs.g == nil {
			r.recordEvent(e, e.Group, fmt.Errorf("group is down"))
			return
		}
		_, err := r.commit(gs)
		r.recordEvent(e, e.Group, err)
		return
	}
	_, err := r.machines[e.Machine].m.Store.Checkpoint()
	r.recordEvent(e, e.Machine, err)
}

// finish evaluates assertions and assembles the result.
func (r *Harness) finish() {
	r.res.ElapsedNS = int64(r.clk.Now())

	if r.tele != nil {
		// One last sampler tick so the final counter totals land in the
		// series, then the end-of-run SLO pass: final-at-least objectives
		// only have a verdict now that the run is over.
		r.sampleTelemetry()
		for _, mem := range r.tele.members {
			for _, b := range mem.watch.Final(mem.reg, r.clk.Now()) {
				if b.SLOKind() == telemetry.SLOFinalAtLeast {
					r.recordBreach(mem.name, b)
				}
			}
		}
		snap := r.tele.fleet.FleetSnapshot()
		snap.Breaches = make([]telemetry.Breach, 0, len(r.res.SLOBreaches))
		for _, b := range r.res.SLOBreaches {
			snap.Breaches = append(snap.Breaches, b.Breach)
		}
		r.res.Metrics = &snap
	}
	r.exportTraces()
	if r.coord != nil {
		r.res.FleetStatus = r.coord.Status()
	}

	for _, ms := range r.machineList {
		r.res.Flights = append(r.res.Flights, MachineFlight{Machine: ms.decl.Name, Timeline: combinedFlight(ms.m)})
	}
	for _, gs := range r.groupList {
		st := GroupStat{
			Group:        gs.key,
			Machine:      gs.host.decl.Name,
			Alive:        gs.alive,
			Ops:          gs.ops,
			Checkpoints:  gs.ckpts,
			WALCommits:   gs.walCommits,
			Restores:     int64(len(gs.restoreTimes)),
			P99StopUS:    int64(p99(gs.stopTimes) / time.Microsecond),
			P99DurableUS: int64(p99(gs.durableWindows) / time.Microsecond),
		}
		if rs, ok := r.repls[gs.key]; ok {
			st.StandbyEpoch = int64(rs.rep.Base())
			st.Syncs = int64(rs.rep.Syncs)
		}
		if r.coord != nil {
			if a, ok := r.coord.Assignment(gs.key); ok {
				st.StandbyEpoch = a.StandbyEpoch()
				st.Syncs = a.Syncs
			}
		}
		r.res.Groups = append(r.res.Groups, st)
	}

	allOK := true
	for _, a := range r.sc.Assertions {
		ar := AssertionResult{Decl: a}
		ar.Pass, ar.Detail = lookup(assertionKinds, a.Kind).do(r, a)
		r.res.Assertions = append(r.res.Assertions, ar)
		if !ar.Pass {
			allOK = false
		}
	}
	r.res.AssertionsOK = allOK
	r.res.Passed = allOK
	if r.res.Expect == ExpectFail {
		r.res.Passed = !allOK
	}
}

// exportTraces renders what the traced machines recorded: one text rollup
// each, and one merged Chrome/Perfetto trace of every traced machine's
// tracer — plus the placement coordinator's, when a telemetry block
// instruments it — with one process per machine and cross-machine
// causality (replication ships, kill -> failover -> promote chains) drawn
// as flow arrows. Nothing when no machine declared trace: true.
func (r *Harness) exportTraces() {
	var tls []trace.Timeline
	r.res.Rollups = make(map[string]string)
	for _, ms := range r.machineList {
		if !ms.decl.Trace {
			continue
		}
		r.res.Rollups[ms.decl.Name] = ms.m.Tracer.Rollup()
		tls = append(tls, trace.Timeline{Name: ms.decl.Name, T: ms.m.Tracer})
	}
	if len(tls) == 0 {
		return
	}
	if r.tele != nil {
		if coord := r.tele.members[len(r.tele.members)-1]; coord.ms == nil {
			tls = append(tls, trace.Timeline{Name: "coordinator", T: coord.reg.Store()})
		}
	}
	var sb strings.Builder
	if err := trace.WriteChrome(&sb, tls); err != nil {
		r.recordErr("fleet timeline export: %v", err)
		return
	}
	r.res.TimelineJSON = sb.String()
}

// combinedFlight assembles a machine's forensic timeline: the ring the
// store persisted before the last crash, the fault device's crash log (cut
// and torn events can never be inside the checkpoint they interrupt), and
// the live post-boot ring, merged by virtual time.
func combinedFlight(m *aurora.Machine) string {
	var evs []aurora.FlightEvent
	if rec, _, ok, err := m.RecoveredFlight(); err == nil && ok {
		evs = append(evs, rec...)
	}
	if m.Fault != nil {
		evs = append(evs, m.Fault.CrashLog()...)
	}
	evs = append(evs, m.Flight.Events()...)
	slices.SortStableFunc(evs, func(a, b aurora.FlightEvent) int { return cmp.Compare(a.At, b.At) })
	var sb strings.Builder
	for _, ev := range evs {
		sb.WriteString(ev.String() + "\n")
	}
	return sb.String()
}

// p99 returns the 99th-percentile of the samples (0 for none).
func p99(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(samples))
	return s[len(s)*99/100]
}

// Package scenario is Aurora's declarative chaos engine: a scenario is a
// data file — YAML or JSON — declaring a fleet of machines, a workload mix
// drawn from the existing generators (Facebook ETC memcached, Prefix_dist
// RocksDB, filebench, the counter demo), timed fault events on the shared
// virtual clock (power cuts, replication-link partitions, bit-rot, live
// migration, failover), and assertions over the outcome (audit clean,
// standby caught up, flight timeline contains the cut, p99 stop time under
// a bound). The runner plugs into the machinery the repo already has —
// internal/faultdev, internal/net, internal/audit, internal/flight,
// internal/trace — rather than duplicating it, so "as many scenarios as
// you can imagine" becomes a corpus of files CI sweeps on every PR instead
// of bespoke Go harness code.
//
// Determinism contract: a scenario plus a seed replays bit-identically.
// Every machine shares one virtual clock; every generator, fault plan, and
// wire plan is seeded from the scenario seed by declaration position; the
// runner iterates declarations in order and never ranges over a map. Two
// runs with the same seed produce identical assertion results, event logs,
// and flight timelines — Result.Fingerprint() is the proof the CI sweep
// and the determinism test both pin.
package scenario

import (
	"cmp"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"time"

	"aurora/internal/placement"
)

// Expectation values for Scenario.Expect.
const (
	ExpectPass = "pass"
	ExpectFail = "fail" // a negative scenario: the run must violate assertions
)

// Scenario is one declared chaos experiment.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Seed is the default PRNG seed; `sls scenario run -seed` overrides.
	Seed int64 `json:"seed,omitempty"`
	// DurationMS is the virtual runtime. TickMS is the scheduling quantum
	// (default 1): workloads step and cadences fire once per tick.
	DurationMS int64 `json:"duration_ms"`
	TickMS     int64 `json:"tick_ms,omitempty"`
	// Expect is "pass" (default) or "fail" for negative scenarios that
	// prove assertions can trip.
	Expect string `json:"expect,omitempty"`

	// The sections, in the order the decoder reads them (and reports the
	// first mistake in).
	Machines     []MachineDecl   `json:"machines"`
	Workloads    []WorkloadDecl  `json:"workloads,omitempty"`
	Replications []ReplDecl      `json:"replications,omitempty"`
	Telemetry    *TelemetryDecl  `json:"telemetry,omitempty"`
	Placement    *PlacementDecl  `json:"placement,omitempty"`
	Events       []EventDecl     `json:"events,omitempty"`
	Assertions   []AssertionDecl `json:"assertions"`
}

// TelemetryDecl turns on the metrics plane (internal/telemetry): every
// machine gets a typed registry the SLS hooks feed, the runner samples
// them into time-series on the declared cadence, and the declared SLO
// rules are evaluated each sample — a fired breach lands in the flight
// recorder (slo.breach), the slo.breaches counter, and the result. The
// run's artifacts gain a deterministic fleet metrics snapshot
// (metrics.json) and, when machines are traced, one merged fleet
// timeline (timeline.json) with cross-machine flow arrows.
type TelemetryDecl struct {
	SampleEveryMS int64     `json:"sample_every_ms,omitempty"` // sampler cadence (default 5)
	SLOs          []SLODecl `json:"slos,omitempty"`
}

// EffectiveSampleEvery resolves the sampler cadence or its default.
func (t *TelemetryDecl) EffectiveSampleEvery() int64 { return cmp.Or(t.SampleEveryMS, 5) }

// SLODecl is one declarative objective over a registry metric, evaluated
// per machine on the sampler cadence (final-at-least only at end of run).
// Bound units match the metric's units — nanoseconds for the .ns latency
// histograms the SLS hooks export.
type SLODecl struct {
	Name   string `json:"name"`
	Metric string `json:"metric"`
	Kind   string `json:"kind"` // one of sloKinds
	Bound  int64  `json:"bound"`
}

// PlacementDecl turns on the fleet coordinator (internal/placement): every
// group workload is managed — the coordinator picks and seeds its standby,
// syncs it on a cadence, discovers machine death via heartbeats, fails
// groups over, and (when rebalance_every_ms is set) sheds hot groups via
// live migration. A placement scenario declares no `replications` block
// (the coordinator owns standbys) and kills machines with `machine-dies`
// rather than `power-cut` (dead machines stay dead; the coordinator must
// notice on its own). Migrate events route through the coordinator,
// keeping its view of placement authoritative.
type PlacementDecl struct {
	SyncEveryMS      int64   `json:"sync_every_ms,omitempty"`      // default 10
	HeartbeatEveryMS int64   `json:"heartbeat_every_ms,omitempty"` // default 5
	RebalanceEveryMS int64   `json:"rebalance_every_ms,omitempty"` // hot-group scan; 0 disables
	HotFactor        float64 `json:"hot_factor,omitempty"`         // default 2.0
}

// EffectiveConfig resolves the declared knobs into the coordinator config
// the runner builds — unset cadences get the runner defaults, everything
// else gets placement's own. Validate prints from this so the reported
// effective values cannot drift from what a run uses.
func (p *PlacementDecl) EffectiveConfig() placement.Config {
	ms := func(v int64) time.Duration { return time.Duration(v) * time.Millisecond }
	return placement.Config{
		SyncEvery:      ms(cmp.Or(p.SyncEveryMS, 10)),
		HeartbeatEvery: ms(cmp.Or(p.HeartbeatEveryMS, 5)),
		RebalanceEvery: ms(p.RebalanceEveryMS),
		HotFactor:      p.HotFactor,
	}.Filled()
}

// MachineDecl sizes one fleet member. Every scenario machine carries a
// fault device (internal/faultdev) so events can kill or rot it.
type MachineDecl struct {
	Name      string `json:"name"`
	StorageMB int64  `json:"storage_mb,omitempty"` // default 256
	Trace     bool   `json:"trace,omitempty"`
}

// WorkloadDecl binds an application to a machine and drives it every tick.
type WorkloadDecl struct {
	Machine string `json:"machine"`
	// Group is the consistency group name; empty only for filebench,
	// whose state lives in the file system rather than process memory.
	Group string `json:"group,omitempty"`
	App   string `json:"app"` // one of appKinds
	// Generator (one of generatorKinds), Items and ValueBytes shape the
	// key-value op stream.
	Generator  string `json:"generator,omitempty"`
	Items      int64  `json:"items,omitempty"`       // key space / slot count (default 1024)
	ValueBytes int64  `json:"value_bytes,omitempty"` // uniform generator value size
	OpsPerTick int64  `json:"ops_per_tick,omitempty"`
	// Personality selects the filebench workload, one of personalityKinds
	// (default varmail).
	Personality string `json:"personality,omitempty"`
	// CheckpointEveryMS is the periodic checkpoint cadence; 0 means only
	// explicit checkpoint events persist this workload.
	CheckpointEveryMS int64 `json:"checkpoint_every_ms,omitempty"`
	// WALCommit makes periodic and explicit checkpoints of this group
	// WAL-first (CkptWAL): deltas append to the store's log region and the
	// epoch only advances on a fold. FoldEvery promotes every Nth WAL
	// commit to a full checkpoint so the log region is reclaimed; 0 means
	// the group folds only when the WAL region fills.
	WALCommit bool  `json:"wal_commit,omitempty"`
	FoldEvery int64 `json:"fold_every,omitempty"`
}

// ReplDecl keeps a warm standby of a group on another machine, syncing on
// a cadence over a simulated lossy wire.
type ReplDecl struct {
	Group       string  `json:"group"`
	From        string  `json:"from"`
	To          string  `json:"to"`
	SyncEveryMS int64   `json:"sync_every_ms,omitempty"` // 0: only explicit sync events
	Drop        float64 `json:"drop,omitempty"`
	Dup         float64 `json:"dup,omitempty"`
	Reorder     float64 `json:"reorder,omitempty"`
	Corrupt     float64 `json:"corrupt,omitempty"`
}

// EffectiveOpsPerTick resolves the declared per-tick op rate or its default.
// The Effective* methods are the one place a runner default lives, so
// `scenario validate` reports exactly the values a run uses.
func (w *WorkloadDecl) EffectiveOpsPerTick() int64 { return cmp.Or(w.OpsPerTick, 20) }

// EventDecl is one timed event on the shared virtual clock.
type EventDecl struct {
	AtMS int64  `json:"at_ms"`
	Kind string `json:"kind"` // one of eventKinds

	Machine string `json:"machine,omitempty"`
	Group   string `json:"group,omitempty"`

	// power-cut knobs (see faultdev.Plan).
	Torn         bool `json:"torn,omitempty"`
	DropInFlight bool `json:"drop_in_flight,omitempty"`

	// partition duration.
	ForMS int64 `json:"for_ms,omitempty"`

	// bit-rot targets: indexes into the machine's live committed pages
	// (resolved via Store.LivePageAddrs, modulo the live count).
	Pages []int64 `json:"pages,omitempty"`

	// migrate destination and pre-copy rounds.
	To     string `json:"to,omitempty"`
	Rounds int64  `json:"rounds,omitempty"`

	// restore mode, one of restoreModes: "serial" (eager, the default),
	// "lazy", or "speculative" — every object rebuilt before any page
	// loads, so its restores-under-us budget is the time to first op.
	RestoreMode string `json:"restore_mode,omitempty"`
}

// EffectiveRounds resolves a migrate event's declared pre-copy rounds or the
// default (the same two rounds a placement rebalance defaults to).
func (e *EventDecl) EffectiveRounds() int64 { return cmp.Or(e.Rounds, 2) }

// AssertionDecl is one end-of-run check.
type AssertionDecl struct {
	Kind    string `json:"kind"` // one of assertionKinds
	Machine string `json:"machine,omitempty"`
	Group   string `json:"group,omitempty"`
	Event   string `json:"event,omitempty"` // flight-contains: flight kind name, e.g. "power.cut"
	Min     int64  `json:"min,omitempty"`   // thresholds (counts, epochs); default 1
	MaxUS   int64  `json:"max_us,omitempty"`
	// Max is the at-most bound (rollbacks-at-most, metric-*-under); unlike
	// Min it does not default — 0 means none allowed.
	Max int64 `json:"max,omitempty"`
	// Metric names the registry metric a metric-* assertion reads, e.g.
	// "sls.stop.ns" or "fleet.failover.ns".
	Metric string `json:"metric,omitempty"`
}

// Parse decodes a scenario from YAML (or JSON — valid JSON is a YAML
// subset only for the flow forms this parser rejects, so JSON sources go
// through ParseJSON in file.go) and validates it.
func Parse(src []byte) (*Scenario, error) {
	raw, err := ParseYAML(src)
	if err != nil {
		return nil, err
	}
	return Decode(raw)
}

// Decode builds a Scenario from generic parsed values, rejecting unknown
// fields and wrong types with positioned paths, then validates it.
func Decode(raw map[string]any) (*Scenario, error) {
	d := &decoder{}
	sc := &Scenario{}
	d.object(raw, "scenario", reflect.ValueOf(sc).Elem())
	if d.err != nil {
		return nil, d.err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// checker collects a validation pass's complaints, and what the
// declarations seen so far make available to the ones after them.
type checker struct {
	sc       *Scenario
	machines map[string]bool
	groups   map[string]string // group -> machine
	repls    map[string]bool
	errs     []string
}

func (c *checker) bad(format string, args ...any) {
	c.errs = append(c.errs, fmt.Sprintf(format, args...))
}

// hasMachine complains when the field at path names no declared machine.
func (c *checker) hasMachine(path, name string) {
	if !c.machines[name] {
		c.bad("%s: no machine %q", path, name)
	}
}

// hasGroup complains when the field at path names no workload's group.
func (c *checker) hasGroup(path, name string) {
	if _, ok := c.groups[name]; !ok {
		c.bad("%s: no workload declares group %q", path, name)
	}
}

// checkKind validates one declaration against its table entry: the kind
// must exist, its needs must be met by the machine and group the declaration
// names, and its own field checks must pass. what is "event" or "assertion".
func checkKind[D, F any](c *checker, at, what string, table []kind[D, F], name string, d *D, machine, group string) {
	if name == "" {
		c.bad("%s.kind: required", at)
		return
	}
	k := lookup(table, name)
	if k == nil {
		c.bad("%s.kind: unknown %s kind %q (want one of %s)", at, what, name, strings.Join(names(table), ", "))
		return
	}
	if k.needs&needMachine != 0 {
		c.hasMachine(at+".machine", machine)
	}
	if k.needs&needGroup != 0 {
		c.hasGroup(at+".group", group)
	}
	if k.needs&needRepl != 0 && !c.repls[group] {
		c.bad("%s.group: no replication declared for group %q", at, group)
	}
	if k.needs&needPlacement != 0 && c.sc.Placement == nil || k.needs&noPlacement != 0 && c.sc.Placement != nil {
		c.bad("%s: %s", at, cmp.Or(k.why, name+" needs a placement block"))
	}
	if k.needs&needTelemetry != 0 && c.sc.Telemetry == nil {
		c.bad("%s: %s needs a telemetry block", at, name)
	}
	if k.check != nil {
		k.check(c, at, d)
	}
}

// Validate checks cross-references and ranges. Parse/Decode call it; the
// CLI's `scenario validate` is this over a whole corpus.
func (s *Scenario) Validate() error {
	c := &checker{sc: s, machines: map[string]bool{}, groups: map[string]string{}, repls: map[string]bool{}}
	bad := c.bad

	if s.Name == "" {
		bad("name: required")
	}
	if s.DurationMS <= 0 {
		bad("duration_ms: must be positive, got %d", s.DurationMS)
	}
	if s.TickMS < 0 {
		bad("tick_ms: must not be negative, got %d", s.TickMS)
	}
	if s.Expect != "" && s.Expect != ExpectPass && s.Expect != ExpectFail {
		bad("expect: must be %q or %q, got %q", ExpectPass, ExpectFail, s.Expect)
	}
	if len(s.Machines) == 0 {
		bad("machines: at least one machine is required")
	}
	for i, m := range s.Machines {
		if m.Name == "" {
			bad("machines[%d].name: required", i)
		}
		if c.machines[m.Name] {
			bad("machines[%d]: duplicate machine %q", i, m.Name)
		}
		c.machines[m.Name] = true
		if m.StorageMB < 0 {
			bad("machines[%d].storage_mb: must not be negative", i)
		}
	}

	for i := range s.Workloads {
		w := &s.Workloads[i]
		at := fmt.Sprintf("workloads[%d]", i)
		c.hasMachine(at+".machine", w.Machine)
		if app := lookup(appKinds, w.App); app != nil {
			app.check(c, at, w)
		} else if w.App == "" {
			bad("%s.app: required", at)
		} else {
			bad("%s.app: unknown app %q", at, w.App)
		}
		if w.Group != "" {
			if _, dup := c.groups[w.Group]; dup {
				bad("%s.group: duplicate group %q", at, w.Group)
			}
			c.groups[w.Group] = w.Machine
		}
		if w.Generator != "" && lookup(generatorKinds, w.Generator) == nil {
			bad("%s.generator: unknown generator %q", at, w.Generator)
		}
		if w.Items < 0 || w.OpsPerTick < 0 || w.ValueBytes < 0 || w.CheckpointEveryMS < 0 {
			bad("%s: sizes and cadences must not be negative", at)
		}
		if w.FoldEvery < 0 {
			bad("%s.fold_every: must not be negative, got %d", at, w.FoldEvery)
		}
		if (w.WALCommit || w.FoldEvery > 0) && w.Group == "" {
			bad("%s: wal_commit/fold_every need a consistency group", at)
		}
		if w.FoldEvery > 0 && !w.WALCommit {
			bad("%s.fold_every: only meaningful with wal_commit", at)
		}
	}

	if p := s.Placement; p != nil {
		if len(s.Machines) < 2 {
			bad("placement: needs at least two machines (a standby must live somewhere else)")
		}
		if len(s.Replications) > 0 {
			bad("placement: declares standbys itself; remove the replications block")
		}
		if p.SyncEveryMS < 0 || p.HeartbeatEveryMS < 0 || p.RebalanceEveryMS < 0 {
			bad("placement: cadences and counts must not be negative")
		}
		if p.HotFactor < 0 {
			bad("placement.hot_factor: must not be negative, got %g", p.HotFactor)
		}
	}

	if t := s.Telemetry; t != nil {
		if t.SampleEveryMS < 0 {
			bad("telemetry.sample_every_ms: must not be negative, got %d", t.SampleEveryMS)
		}
		sloNames := map[string]bool{}
		for i, r := range t.SLOs {
			at := fmt.Sprintf("telemetry.slos[%d]", i)
			if r.Name == "" {
				bad("%s.name: required", at)
			}
			if sloNames[r.Name] {
				bad("%s: duplicate slo %q", at, r.Name)
			}
			sloNames[r.Name] = true
			if r.Metric == "" {
				bad("%s.metric: required", at)
			}
			if lookup(sloKinds, r.Kind) == nil {
				bad("%s.kind: unknown slo kind %q (want one of %s)", at, r.Kind, strings.Join(names(sloKinds), ", "))
			}
			if r.Bound <= 0 {
				bad("%s.bound: needs a positive bound", at)
			}
		}
	}

	for i, r := range s.Replications {
		at := fmt.Sprintf("replications[%d]", i)
		c.hasGroup(at+".group", r.Group)
		c.hasMachine(at+".from", r.From)
		c.hasMachine(at+".to", r.To)
		if r.From != "" && r.From == r.To {
			bad("%s: from and to are both %q", at, r.From)
		}
		if gm, ok := c.groups[r.Group]; ok && gm != r.From {
			bad("%s: group %q runs on %q, not on from=%q", at, r.Group, gm, r.From)
		}
		if c.repls[r.Group] {
			bad("%s: duplicate replication of group %q", at, r.Group)
		}
		c.repls[r.Group] = true
		for _, p := range []struct {
			name string
			v    float64
		}{{"drop", r.Drop}, {"dup", r.Dup}, {"reorder", r.Reorder}, {"corrupt", r.Corrupt}} {
			if p.v < 0 || p.v >= 1 {
				bad("%s.%s: probability must be in [0,1), got %g", at, p.name, p.v)
			}
		}
		if r.SyncEveryMS < 0 {
			bad("%s.sync_every_ms: must not be negative", at)
		}
	}

	for i := range s.Events {
		e := &s.Events[i]
		at := fmt.Sprintf("events[%d]", i)
		if e.AtMS < 0 {
			bad("%s.at_ms: must not be negative, got %d", at, e.AtMS)
		}
		if e.AtMS > s.DurationMS {
			bad("%s.at_ms: %d is after the scenario ends (%d)", at, e.AtMS, s.DurationMS)
		}
		if e.RestoreMode != "" && e.Kind != "restore" {
			bad("%s.restore_mode: only %q events take a restore mode", at, "restore")
		}
		checkKind(c, at, "event", eventKinds, e.Kind, e, e.Machine, e.Group)
	}

	if len(s.Assertions) == 0 {
		bad("assertions: at least one assertion is required")
	}
	for i := range s.Assertions {
		a := &s.Assertions[i]
		at := fmt.Sprintf("assertions[%d]", i)
		checkKind(c, at, "assertion", assertionKinds, a.Kind, a, a.Machine, a.Group)
		if a.Min < 0 {
			bad("%s.min: must not be negative", at)
		}
	}

	if len(c.errs) == 0 {
		return nil
	}
	sort.Strings(c.errs)
	return fmt.Errorf("scenario %q invalid:\n  %s", s.Name, strings.Join(c.errs, "\n  "))
}

// ---- the field checks single kinds have, named by the tables in kinds.go ----

func checkHasGroup(c *checker, at string, w *WorkloadDecl) {
	if w.Group == "" {
		c.bad("%s.group: required for app %q", at, w.App)
	}
}

func checkFilebench(c *checker, at string, w *WorkloadDecl) {
	if w.Group != "" {
		c.bad("%s.group: filebench state lives in the file system; omit group", at)
	}
	if w.Personality != "" && lookup(personalityKinds, w.Personality) == nil {
		c.bad("%s.personality: unknown %q (want one of %s)", at, w.Personality, strings.Join(names(personalityKinds), ", "))
	}
}

func checkRestoreMode(c *checker, at string, e *EventDecl) {
	if e.RestoreMode != "" && lookup(restoreModes, e.RestoreMode) == nil {
		modes := names(restoreModes)
		c.bad("%s.restore_mode: unknown mode %q (want %s, or %s)", at, e.RestoreMode,
			strings.Join(modes[:len(modes)-1], ", "), modes[len(modes)-1])
	}
}

func checkPartition(c *checker, at string, e *EventDecl) {
	if e.ForMS <= 0 {
		c.bad("%s.for_ms: partition needs a positive duration", at)
	}
}

func checkBitRot(c *checker, at string, e *EventDecl) {
	if len(e.Pages) == 0 {
		c.bad("%s.pages: bit-rot needs at least one live-page index", at)
	}
	for _, pg := range e.Pages {
		if pg < 0 {
			c.bad("%s.pages: negative page index %d", at, pg)
		}
	}
}

func checkMigrate(c *checker, at string, e *EventDecl) {
	c.hasMachine(at+".to", e.To)
	if e.Rounds < 0 {
		c.bad("%s.rounds: must not be negative", at)
	}
}

// checkCheckpoint: a checkpoint event names a group, or else a machine whose
// whole store it commits.
func checkCheckpoint(c *checker, at string, e *EventDecl) {
	if e.Group != "" {
		c.hasGroup(at+".group", e.Group)
	} else if !c.machines[e.Machine] {
		c.bad("%s: checkpoint needs a group or a machine", at)
	}
}

func checkFlightEvent(c *checker, at string, a *AssertionDecl) {
	if a.Event == "" {
		c.bad("%s.event: flight-contains needs a flight event kind (e.g. \"power.cut\")", at)
	}
}

func checkMaxUS(c *checker, at string, a *AssertionDecl) {
	if a.MaxUS <= 0 {
		c.bad("%s.max_us: needs a positive bound", at)
	}
}

func checkRollbackMax(c *checker, at string, a *AssertionDecl) {
	if a.Max < 0 {
		c.bad("%s.max: must not be negative", at)
	}
}

// checkMetric: a metric assertion names its metric, and a machine only to
// narrow the read from fleet-wide to that machine's store.
func checkMetric(c *checker, at string, a *AssertionDecl) {
	if a.Metric == "" {
		c.bad("%s.metric: required", at)
	}
	if a.Machine != "" {
		c.hasMachine(at+".machine", a.Machine)
	}
}

func checkMetricMax(c *checker, at string, a *AssertionDecl) {
	checkMetric(c, at, a)
	if a.Max <= 0 {
		c.bad("%s.max: needs a positive bound", at)
	}
}

package scenario

// Every name a scenario file can put in a `kind`, `app`, `generator`,
// `personality` or `restore_mode` field is one entry of one table in this
// file: what the validator checks, what the runner calls, the "want one of"
// lists in error messages, `sls scenario`'s help and the tables DESIGN.md
// carries are all read from here. Adding a kind is one entry (and its line in
// DESIGN.md, which TestDesignListsEveryKind insists on).

import (
	"cmp"
	"fmt"
	"strings"
	"time"

	"aurora"
	"aurora/internal/filebench"
	"aurora/internal/telemetry"
	"aurora/internal/vfs"
	"aurora/internal/workload"
)

// need is what a kind requires of the scenario around its declaration.
type need uint8

const (
	needMachine   need = 1 << iota // `machine` names a declared machine
	needGroup                      // `group` names a workload's consistency group
	needRepl                       // `group` names a declared replication
	needPlacement                  // the scenario has a placement block
	noPlacement                    // ... or must not: the coordinator owns this
	needTelemetry                  // the scenario has a telemetry block
)

// kind is one table entry. D is the declaration the kind appears in, F what
// the runner does with it.
type kind[D, F any] struct {
	name string
	doc  string // one line: help text, and what DESIGN.md must say it about
	// needs are checked for every declaration of the kind; why is said when
	// the placement need is unmet ("" says "<name> needs a placement block").
	needs need
	why   string
	// check holds the field checks only this kind has; nil for none.
	check func(c *checker, at string, d *D)
	do    F
}

// lookup finds name in table; nil when the table has no such kind.
func lookup[D, F any](table []kind[D, F], name string) *kind[D, F] {
	for i := range table {
		if table[i].name == name {
			return &table[i]
		}
	}
	return nil
}

// pick is lookup with the table's first entry standing for an unset name:
// the default generator, personality and restore mode.
func pick[D, F any](table []kind[D, F], name string) *kind[D, F] {
	if name == "" {
		return &table[0]
	}
	return lookup(table, name)
}

// names lists a table in declaration order — the order error messages and
// help print it in.
func names[D, F any](table []kind[D, F]) []string {
	out := make([]string, len(table))
	for i := range table {
		out[i] = table[i].name
	}
	return out
}

// Timed events on the shared virtual clock.
var eventKinds = []kind[EventDecl, func(*Harness, EventDecl)]{
	{name: "power-cut", doc: "machine: kill through faultdev (torn, drop_in_flight) and reboot",
		needs: needMachine | noPlacement,
		why:   `power-cut bypasses the coordinator; placement scenarios kill machines with "machine-dies"`,
		do:    (*Harness).firePowerCut},
	{name: "restore", doc: "machine+group: restore (restore_mode) and rebind the app",
		needs: needMachine | needGroup | noPlacement,
		why:   "placement scenarios recover through coordinator failover, not explicit restore",
		check: checkRestoreMode, do: (*Harness).fireRestore},
	{name: "partition", doc: "group: cut the replication wire for for_ms",
		needs: needRepl, check: checkPartition, do: (*Harness).firePartition},
	{name: "bit-rot", doc: "machine: rot the live data pages indexed by pages",
		needs: needMachine, check: checkBitRot, do: (*Harness).fireBitRot},
	{name: "migrate", doc: "group→to: live pre-copy migration in rounds",
		needs: needGroup, check: checkMigrate, do: (*Harness).fireMigrate},
	{name: "failover", doc: "group: restore on the standby",
		needs: needRepl, do: (*Harness).fireFailover},
	{name: "checkpoint", doc: "group, or the whole store of machine",
		check: checkCheckpoint, do: (*Harness).fireCheckpoint},
	{name: "sync", doc: "group: one replication sync now",
		needs: needRepl, do: (*Harness).fireSync},
	{name: "machine-dies", doc: "machine: permanent death the coordinator must discover (placement mode)",
		needs: needPlacement | needMachine,
		why:   "machine-dies needs a placement block (the coordinator discovers the death)",
		do:    (*Harness).fireMachineDies},
	{name: "rebalance", doc: "fleet: force a hot-group rebalance scan now (placement mode)",
		needs: needPlacement, do: (*Harness).fireRebalance},
}

// End-of-run checks. do returns the verdict and the detail line.
var assertionKinds = []kind[AssertionDecl, func(*Harness, AssertionDecl) (bool, string)]{
	{name: "audit-clean", doc: "machine: the invariant watchdog finds nothing",
		needs: needMachine, do: (*Harness).auditClean},
	{name: "fsck-clean", doc: "machine: the store verifies",
		needs: needMachine, do: (*Harness).fsckClean},
	{name: "fsck-problems", doc: "machine: fsck finds >= min problems (bit-rot proof)",
		needs: needMachine, do: atLeast("%d problems (want >= %d)", func(r *Harness, a AssertionDecl) int64 {
			return int64(len(r.machines[a.Machine].m.Store.Fsck().Problems))
		})},
	{name: "flight-contains", doc: "machine: the recovered timeline has >= min events of kind event",
		needs: needMachine, check: checkFlightEvent, do: (*Harness).flightContains},
	{name: "standby-min-epoch", doc: "group: the standby holds epoch >= min",
		needs: needRepl, do: atLeast("standby epoch %d (want >= %d)", func(r *Harness, a AssertionDecl) int64 {
			return int64(r.repls[a.Group].rep.Base())
		})},
	{name: "syncs-at-least", doc: "group: replication landed >= min ships",
		needs: needRepl, do: atLeast("%d syncs (want >= %d)", func(r *Harness, a AssertionDecl) int64 {
			return int64(r.repls[a.Group].rep.Syncs)
		})},
	{name: "ops-at-least", doc: "group: the workload completed >= min ops",
		needs: needGroup, do: atLeast("%d ops (want >= %d)", func(r *Harness, a AssertionDecl) int64 {
			return r.groups[a.Group].ops
		})},
	{name: "checkpoints-at-least", doc: "group: >= min checkpoints committed",
		needs: needGroup, do: atLeast("%d checkpoints (want >= %d)", func(r *Harness, a AssertionDecl) int64 {
			return r.groups[a.Group].ckpts
		})},
	{name: "group-on", doc: "machine+group: the group is live there",
		needs: needMachine | needGroup, do: (*Harness).groupOn},
	{name: "p99-stop-under-us", doc: "group: p99 checkpoint stop time <= max_us",
		needs: needGroup, check: checkMaxUS, do: (*Harness).p99StopUnder},
	{name: "restores-under-us", doc: "group: every restore (time to first op when speculative) <= max_us",
		needs: needGroup, check: checkMaxUS, do: (*Harness).restoresUnder},
	{name: "durable-window-under-us", doc: "group: p99 span from checkpoint start to durable commit <= max_us",
		needs: needGroup, check: checkMaxUS, do: (*Harness).durableWindowUnder},
	{name: "fleet-health", doc: "fleet: no group orphaned, every surviving group has a live standby (placement mode)",
		needs: needPlacement, do: (*Harness).fleetHealth},
	{name: "failovers-at-least", doc: "fleet: the coordinator performed >= min failovers (placement mode)",
		needs: needPlacement, do: atLeast("%d failovers (want >= %d)", func(r *Harness, _ AssertionDecl) int64 {
			return r.coord.Failovers()
		})},
	{name: "rollbacks-at-most", doc: "group: restore rollbacks <= max (default 0; a restore that meets rot fails instead)",
		needs: needGroup, check: checkRollbackMax, do: (*Harness).rollbacksAtMost},
	// The metric kinds read a named metric through telemetry.Judge, as an
	// SLO of that kind does: one machine's store when `machine` is set,
	// else fleet-wide (histograms merge exactly, series reduce across members).
	{name: "metric-max-under", doc: "metric: the series' max < max",
		needs: needTelemetry, check: checkMetricMax, do: (*Harness).metricMaxUnder},
	{name: "metric-p99-under", doc: "metric: the histogram's p99 < max",
		needs: needTelemetry, check: checkMetricMax, do: (*Harness).metricP99Under},
	{name: "metric-final-at-least", doc: "metric: the series' last value >= min",
		needs: needTelemetry, check: checkMetric, do: (*Harness).metricFinalAtLeast},
}

// bindApp builds a workload's application on its machine; seed feeds the op
// generator, tick is the burst length of duration-driven apps. The group is
// nil for an app whose state is not process memory.
type bindApp = func(ms *machineState, w WorkloadDecl, seed int64, tick time.Duration) (appBinding, *aurora.Group, error)

// Workload applications.
var appKinds = []kind[WorkloadDecl, bindApp]{
	{name: "counter", doc: "the sls demo app: one u64 in process memory, 10 µs of work per increment",
		check: checkHasGroup, do: newCounterApp},
	{name: "memcached", doc: "internal/apps/memcached under a generator",
		check: checkHasGroup, do: newMemcachedApp},
	{name: "rocksdb", doc: "internal/apps/rocksdb (ConfigAurora) under a generator",
		check: checkHasGroup, do: newRocksDBApp},
	{name: "filebench", doc: "a filebench personality over the machine's file system; takes no group",
		check: checkFilebench, do: newFilebenchApp},
}

// Key-value op generators for memcached and rocksdb; do gets the resolved
// key-space size.
var generatorKinds = []kind[WorkloadDecl, func(seed int64, items int, w WorkloadDecl) workload.Generator]{
	{name: "etc", doc: "Facebook ETC (Mutilate), the paper's memcached driver; the default",
		do: func(seed int64, items int, _ WorkloadDecl) workload.Generator { return workload.NewETC(seed, items) }},
	{name: "prefix_dist", doc: "Facebook Prefix_dist, the paper's RocksDB driver",
		do: func(seed int64, items int, _ WorkloadDecl) workload.Generator {
			return workload.NewPrefixDist(seed, 16, max(items/16, 1))
		}},
	{name: "uniform", doc: "uniform keys, half writes, value_bytes values (default 256)",
		do: func(seed int64, items int, w WorkloadDecl) workload.Generator {
			return workload.NewUniform(seed, items, 0.5, int(cmp.Or(w.ValueBytes, 256)))
		}},
}

// Filebench personalities; the first is the default.
var personalityKinds = []kind[WorkloadDecl, func(vfs.FileSystem, filebench.Config) (filebench.Result, error)]{
	{name: "varmail", doc: "mail-server mix: create, append, fsync, read, delete", do: filebench.VarMail},
	{name: "fileserver", doc: "create, write, append, read, delete over a file set", do: filebench.FileServer},
	{name: "webserver", doc: "whole-file reads plus a log append", do: filebench.WebServer},
	{name: "randomwrite", doc: "random 4 KiB writes into one file", do: filebench.RandomWrite},
	{name: "seqwrite", doc: "sequential 4 KiB writes into one file", do: filebench.SeqWrite},
}

// SLO rule kinds, mirroring telemetry.SLOKind.
var sloKinds = []kind[SLODecl, telemetry.SLOKind]{
	{name: "p99-under", doc: "the histogram's p99 must stay under bound", do: telemetry.SLOP99Under},
	{name: "max-under", doc: "the series' max must stay under bound", do: telemetry.SLOMaxUnder},
	{name: "final-at-least", doc: "the series' last value must reach bound (judged at end of run)", do: telemetry.SLOFinalAtLeast},
}

// restoreMode is how a restore event brings a group back, and which of the
// restore's times is the one its mode is about.
type restoreMode struct {
	restore func(*aurora.Machine, string) (*aurora.Group, aurora.RestoreStats, error)
	cost    func(aurora.RestoreStats) time.Duration
}

func totalTime(st aurora.RestoreStats) time.Duration { return st.Time }

// Restore modes of a restore event; unset means the first.
var restoreModes = []kind[EventDecl, restoreMode]{
	{name: "serial", doc: "eager: every page back before the first op; the default",
		do: restoreMode{(*aurora.Machine).Restore, totalTime}},
	{name: "lazy", doc: "pages come back on first touch",
		do: restoreMode{(*aurora.Machine).RestoreLazily, totalTime}},
	// The budget that matters speculatively is time-to-first-op —
	// restores-under-us bounds exactly the span the mode shrinks.
	{name: "speculative", doc: "every object first, then every page, each checked against its committed sum; rot fails the restore",
		do: restoreMode{(*aurora.Machine).RestoreSpeculatively, func(st aurora.RestoreStats) time.Duration { return st.TimeToFirstOp }}},
}

// Help renders every table: what `sls scenario` prints for its usage.
func Help() string {
	var sb strings.Builder
	section(&sb, "event kinds (events[].kind)", eventKinds)
	section(&sb, "restore modes (events[].restore_mode)", restoreModes)
	section(&sb, "assertion kinds (assertions[].kind)", assertionKinds)
	section(&sb, "apps (workloads[].app)", appKinds)
	section(&sb, "generators (workloads[].generator)", generatorKinds)
	section(&sb, "filebench personalities (workloads[].personality)", personalityKinds)
	section(&sb, "slo kinds (telemetry.slos[].kind)", sloKinds)
	return sb.String()
}

func section[D, F any](sb *strings.Builder, title string, table []kind[D, F]) {
	fmt.Fprintf(sb, "%s:\n", title)
	for _, k := range table {
		fmt.Fprintf(sb, "  %-24s %s\n", k.name, k.doc)
	}
}

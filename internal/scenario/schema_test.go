package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// validSrc is a minimal well-formed scenario the malformed cases mutate.
const validSrc = `
name: t
duration_ms: 10
machines:
  - name: alpha
workloads:
  - machine: alpha
    group: demo
    app: counter
assertions:
  - kind: audit-clean
    machine: alpha
`

func TestDecodeValidMinimal(t *testing.T) {
	sc, err := Parse([]byte(validSrc))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "t" || sc.DurationMS != 10 || len(sc.Machines) != 1 {
		t.Fatalf("decoded wrong: %+v", sc)
	}
}

func TestDecodeSpeculativeRestore(t *testing.T) {
	src := validSrc + `
  - kind: rollbacks-at-most
    group: demo
events:
  - at_ms: 5
    kind: restore
    machine: alpha
    group: demo
    restore_mode: speculative
`
	sc, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Events[0].RestoreMode != "speculative" {
		t.Fatalf("restore mode = %q", sc.Events[0].RestoreMode)
	}
	a := sc.Assertions[1]
	if a.Kind != "rollbacks-at-most" || a.Max != 0 {
		t.Fatalf("assertion = %+v", a)
	}
}

// replSrc, placeSrc and sloSrc are the two-machine bases the replication,
// placement and telemetry cases mutate. Like validSrc they end on the
// assertions list, so a case can append one more assertion or a new section.
const replSrc = `
name: t
duration_ms: 10
machines:
  - name: a
  - name: b
workloads:
  - machine: a
    group: demo
    app: counter
replications:
  - group: demo
    from: a
    to: b
assertions:
  - kind: audit-clean
    machine: a
`

const placeSrc = `
name: t
duration_ms: 10
machines:
  - name: a
  - name: b
workloads:
  - machine: a
    group: demo
    app: counter
placement:
  sync_every_ms: 5
assertions:
  - kind: audit-clean
    machine: a
`

const sloSrc = `
name: t
duration_ms: 10
machines:
  - name: alpha
workloads:
  - machine: alpha
    group: demo
    app: counter
telemetry:
  sample_every_ms: 5
  slos:
    - name: stop
      metric: sls.stop.ns
      kind: p99-under
      bound: 1000
assertions:
  - kind: audit-clean
    machine: alpha
`

const (
	wantEventKinds     = "power-cut, restore, partition, bit-rot, migrate, failover, checkpoint, sync, machine-dies, rebalance"
	wantAssertionKinds = "audit-clean, fsck-clean, fsck-problems, flight-contains, standby-min-epoch, syncs-at-least, ops-at-least, checkpoints-at-least, group-on, p99-stop-under-us, restores-under-us, durable-window-under-us, fleet-health, failovers-at-least, rollbacks-at-most, metric-max-under, metric-p99-under, metric-final-at-least"
)

// malformedCase is one authoring mistake and the full text of the message
// it must produce: the whole error for a decode failure, one whole line of
// the sorted report for a validation failure.
type malformedCase struct {
	name string
	src  string
	want string
}

// sub replaces the first occurrence of old in src, and fails loudly (at
// table-build time) when a base source drifted and the case no longer
// mutates anything.
func sub(src, old, new string) string {
	if !strings.Contains(src, old) {
		panic("malformed-case base does not contain " + old)
	}
	return strings.Replace(src, old, new, 1)
}

// events appends an events section holding one event with the given fields.
func events(base string, fields ...string) string {
	return base + "\nevents:\n  - " + strings.Join(fields, "\n    ") + "\n"
}

// assertion appends one assertion (index 1 on every base) with the fields.
func assertion(base string, fields ...string) string {
	return base + "  - " + strings.Join(fields, "\n    ") + "\n"
}

// malformedCases is the whole catalogue: every message the validator and
// the strict decoder can produce, each need of each kind at least once.
func malformedCases() []malformedCase {
	cases := []malformedCase{
		// ---- scenario header and machines ----
		{"missing name", sub(validSrc, "name: t\n", ""), `name: required`},
		{"non-positive duration", sub(validSrc, "duration_ms: 10", "duration_ms: 0"), `duration_ms: must be positive, got 0`},
		{"negative tick", validSrc + "\ntick_ms: -1\n", `tick_ms: must not be negative, got -1`},
		{"bad expect value", validSrc + "\nexpect: maybe\n", `expect: must be "pass" or "fail", got "maybe"`},
		{"no machines", "\nname: t\nduration_ms: 10\nassertions:\n  - kind: audit-clean\n", `machines: at least one machine is required`},
		{"machine without a name", sub(validSrc, "  - name: alpha\n", "  - name: alpha\n  - storage_mb: 64\n"), `machines[1].name: required`},
		{"duplicate machine", sub(validSrc, "  - name: alpha\n", "  - name: alpha\n  - name: alpha\n"), `machines[1]: duplicate machine "alpha"`},
		{"negative storage", sub(validSrc, "  - name: alpha\n", "  - name: alpha\n    storage_mb: -1\n"), `machines[0].storage_mb: must not be negative`},

		// ---- workloads ----
		{"missing machine ref in workload", sub(validSrc, "machine: alpha\n    group: demo", "machine: ghost\n    group: demo"), `workloads[0].machine: no machine "ghost"`},
		{"counter without group", sub(validSrc, "    group: demo\n", ""), `workloads[0].group: required for app "counter"`},
		{"memcached without group", sub(sub(validSrc, "    group: demo\n", ""), "app: counter", "app: memcached"), `workloads[0].group: required for app "memcached"`},
		{"rocksdb without group", sub(sub(validSrc, "    group: demo\n", ""), "app: counter", "app: rocksdb"), `workloads[0].group: required for app "rocksdb"`},
		{"filebench with group", sub(validSrc, "app: counter", "app: filebench"), `workloads[0].group: filebench state lives in the file system; omit group`},
		{"unknown filebench personality", sub(sub(validSrc, "    group: demo\n", ""), "app: counter", "app: filebench\n    personality: zip"), `workloads[0].personality: unknown "zip" (want one of varmail, fileserver, webserver, randomwrite, seqwrite)`},
		{"missing app", sub(validSrc, "    app: counter\n", ""), `workloads[0].app: required`},
		{"unknown app", sub(validSrc, "app: counter", "app: postgres"), `workloads[0].app: unknown app "postgres"`},
		{"duplicate group", sub(validSrc, "    app: counter\n", "    app: counter\n  - machine: alpha\n    group: demo\n    app: counter\n"), `workloads[1].group: duplicate group "demo"`},
		{"unknown generator", sub(validSrc, "app: counter", "app: memcached\n    generator: pareto"), `workloads[0].generator: unknown generator "pareto"`},
		{"negative workload size", sub(validSrc, "app: counter", "app: counter\n    items: -1"), `workloads[0]: sizes and cadences must not be negative`},
		{"negative fold_every", sub(validSrc, "app: counter", "app: counter\n    wal_commit: true\n    fold_every: -1"), `workloads[0].fold_every: must not be negative, got -1`},
		{"wal_commit without a group", sub(sub(validSrc, "    group: demo\n", ""), "app: counter", "app: filebench\n    wal_commit: true"), `workloads[0]: wal_commit/fold_every need a consistency group`},
		{"fold_every without wal_commit", sub(validSrc, "app: counter", "app: counter\n    fold_every: 4"), `workloads[0].fold_every: only meaningful with wal_commit`},

		// ---- placement ----
		{"placement on one machine", validSrc + "\nplacement:\n  sync_every_ms: 5\n", `placement: needs at least two machines (a standby must live somewhere else)`},
		{"placement with replications", replSrc + "\nplacement:\n  sync_every_ms: 5\n", `placement: declares standbys itself; remove the replications block`},
		{"negative placement cadence", sub(placeSrc, "sync_every_ms: 5", "sync_every_ms: -5"), `placement: cadences and counts must not be negative`},
		{"negative hot factor", sub(placeSrc, "sync_every_ms: 5", "hot_factor: -1"), `placement.hot_factor: must not be negative, got -1`},

		// ---- telemetry ----
		{"negative sample cadence", sub(sloSrc, "sample_every_ms: 5", "sample_every_ms: -5"), `telemetry.sample_every_ms: must not be negative, got -5`},
		{"slo without a name", sub(sloSrc, "    - name: stop\n      metric", "    - metric"), `telemetry.slos[0].name: required`},
		{"duplicate slo", sub(sloSrc, "      bound: 1000\n", "      bound: 1000\n    - name: stop\n      metric: sls.stop.ns\n      kind: max-under\n      bound: 5\n"), `telemetry.slos[1]: duplicate slo "stop"`},
		{"slo without a metric", sub(sloSrc, "      metric: sls.stop.ns\n", ""), `telemetry.slos[0].metric: required`},
		{"unknown slo kind", sub(sloSrc, "kind: p99-under", "kind: median-under"), `telemetry.slos[0].kind: unknown slo kind "median-under" (want one of p99-under, max-under, final-at-least)`},
		{"slo without a bound", sub(sloSrc, "      bound: 1000\n", ""), `telemetry.slos[0].bound: needs a positive bound`},

		// ---- replications ----
		{"replication of an undeclared group", sub(replSrc, "  - group: demo\n    from", "  - group: ghost\n    from"), `replications[0].group: no workload declares group "ghost"`},
		{"replication from an undeclared machine", sub(replSrc, "from: a", "from: ghost"), `replications[0].from: no machine "ghost"`},
		{"replication to an undeclared machine", sub(replSrc, "to: b", "to: ghost"), `replications[0].to: no machine "ghost"`},
		{"replication onto itself", sub(replSrc, "to: b", "to: a"), `replications[0]: from and to are both "a"`},
		{"replication from the wrong machine", sub(sub(replSrc, "from: a", "from: b"), "to: b", "to: a"), `replications[0]: group "demo" runs on "a", not on from="b"`},
		{"duplicate replication", sub(replSrc, "    to: b\n", "    to: b\n  - group: demo\n    from: a\n    to: b\n"), `replications[1]: duplicate replication of group "demo"`},
		{"replication drop probability out of range", sub(replSrc, "    to: b\n", "    to: b\n    drop: 1.5\n"), `replications[0].drop: probability must be in [0,1), got 1.5`},
		{"replication dup probability out of range", sub(replSrc, "    to: b\n", "    to: b\n    dup: -0.5\n"), `replications[0].dup: probability must be in [0,1), got -0.5`},
		{"replication reorder probability out of range", sub(replSrc, "    to: b\n", "    to: b\n    reorder: 1\n"), `replications[0].reorder: probability must be in [0,1), got 1`},
		{"replication corrupt probability out of range", sub(replSrc, "    to: b\n", "    to: b\n    corrupt: 2\n"), `replications[0].corrupt: probability must be in [0,1), got 2`},
		{"negative sync cadence", sub(replSrc, "    to: b\n", "    to: b\n    sync_every_ms: -1\n"), `replications[0].sync_every_ms: must not be negative`},

		// ---- events: the checks every kind shares ----
		{"negative event time", events(validSrc, "at_ms: -3", "kind: power-cut", "machine: alpha"), `events[0].at_ms: must not be negative, got -3`},
		{"event after the end", events(validSrc, "at_ms: 500", "kind: power-cut", "machine: alpha"), `events[0].at_ms: 500 is after the scenario ends (10)`},
		{"restore mode on a non-restore event", events(validSrc, "at_ms: 5", "kind: power-cut", "machine: alpha", "restore_mode: speculative"), `events[0].restore_mode: only "restore" events take a restore mode`},
		{"event without a kind", events(validSrc, "at_ms: 5", "machine: alpha"), `events[0].kind: required`},
		{"unknown event kind", events(validSrc, "at_ms: 5", "kind: meteor-strike", "machine: alpha"), `events[0].kind: unknown event kind "meteor-strike" (want one of ` + wantEventKinds + `)`},

		// ---- events: each kind's own needs ----
		{"missing machine ref in event", events(validSrc, "at_ms: 5", "kind: power-cut", "machine: ghost"), `events[0].machine: no machine "ghost"`},
		{"power-cut under placement", events(placeSrc, "at_ms: 5", "kind: power-cut", "machine: a"), `events[0]: power-cut bypasses the coordinator; placement scenarios kill machines with "machine-dies"`},
		{"restore on an undeclared machine", events(validSrc, "at_ms: 5", "kind: restore", "machine: ghost", "group: demo"), `events[0].machine: no machine "ghost"`},
		{"restore of an undeclared group", events(validSrc, "at_ms: 5", "kind: restore", "machine: alpha", "group: ghost"), `events[0].group: no workload declares group "ghost"`},
		{"restore under placement", events(placeSrc, "at_ms: 5", "kind: restore", "machine: a", "group: demo"), `events[0]: placement scenarios recover through coordinator failover, not explicit restore`},
		{"unknown restore mode", events(validSrc, "at_ms: 5", "kind: restore", "machine: alpha", "group: demo", "restore_mode: psychic"), `events[0].restore_mode: unknown mode "psychic" (want serial, lazy, or speculative)`},
		{"partition without replication", events(validSrc, "at_ms: 5", "kind: partition", "group: demo", "for_ms: 2"), `events[0].group: no replication declared for group "demo"`},
		{"partition without a duration", events(replSrc, "at_ms: 5", "kind: partition", "group: demo"), `events[0].for_ms: partition needs a positive duration`},
		{"bit-rot on an undeclared machine", events(validSrc, "at_ms: 5", "kind: bit-rot", "machine: ghost", "pages: [0]"), `events[0].machine: no machine "ghost"`},
		{"bit-rot without pages", events(validSrc, "at_ms: 5", "kind: bit-rot", "machine: alpha"), `events[0].pages: bit-rot needs at least one live-page index`},
		{"negative bit-rot page index", events(validSrc, "at_ms: 5", "kind: bit-rot", "machine: alpha", "pages: [0, -2]"), `events[0].pages: negative page index -2`},
		{"migrate of an undeclared group", events(replSrc, "at_ms: 5", "kind: migrate", "group: ghost", "to: b"), `events[0].group: no workload declares group "ghost"`},
		{"migrate to an undeclared machine", events(replSrc, "at_ms: 5", "kind: migrate", "group: demo", "to: ghost"), `events[0].to: no machine "ghost"`},
		{"negative migrate rounds", events(replSrc, "at_ms: 5", "kind: migrate", "group: demo", "to: b", "rounds: -1"), `events[0].rounds: must not be negative`},
		{"failover without replication", events(validSrc, "at_ms: 5", "kind: failover", "group: demo"), `events[0].group: no replication declared for group "demo"`},
		{"checkpoint of nothing", events(validSrc, "at_ms: 5", "kind: checkpoint"), `events[0]: checkpoint needs a group or a machine`},
		{"checkpoint of an undeclared group", events(validSrc, "at_ms: 5", "kind: checkpoint", "group: ghost"), `events[0].group: no workload declares group "ghost"`},
		{"sync without replication", events(validSrc, "at_ms: 5", "kind: sync", "group: demo"), `events[0].group: no replication declared for group "demo"`},
		{"machine-dies without placement", events(validSrc, "at_ms: 5", "kind: machine-dies", "machine: alpha"), `events[0]: machine-dies needs a placement block (the coordinator discovers the death)`},
		{"machine-dies on an undeclared machine", events(placeSrc, "at_ms: 5", "kind: machine-dies", "machine: ghost"), `events[0].machine: no machine "ghost"`},
		{"rebalance without placement", events(validSrc, "at_ms: 5", "kind: rebalance"), `events[0]: rebalance needs a placement block`},

		// ---- assertions: the checks every kind shares ----
		{"no assertions", "\nname: t\nduration_ms: 10\nmachines:\n  - name: alpha\n", `assertions: at least one assertion is required`},
		{"assertion without a kind", assertion(validSrc, "machine: alpha"), `assertions[1].kind: required`},
		{"unknown assertion kind", assertion(validSrc, "kind: vibes-good", "machine: alpha"), `assertions[1].kind: unknown assertion kind "vibes-good" (want one of ` + wantAssertionKinds + `)`},
		{"negative min", assertion(validSrc, "kind: ops-at-least", "group: demo", "min: -1"), `assertions[1].min: must not be negative`},

		// ---- assertions: each kind's own needs ----
		{"flight-contains without an event", assertion(validSrc, "kind: flight-contains", "machine: alpha"), `assertions[1].event: flight-contains needs a flight event kind (e.g. "power.cut")`},
		{"p99 bound without max_us", assertion(validSrc, "kind: p99-stop-under-us", "group: demo"), `assertions[1].max_us: needs a positive bound`},
		{"restore bound without max_us", assertion(validSrc, "kind: restores-under-us", "group: demo"), `assertions[1].max_us: needs a positive bound`},
		{"durable window bound without max_us", assertion(validSrc, "kind: durable-window-under-us", "group: demo"), `assertions[1].max_us: needs a positive bound`},
		{"negative rollbacks bound", assertion(validSrc, "kind: rollbacks-at-most", "group: demo", "max: -1"), `assertions[1].max: must not be negative`},
		{"metric assertion without a metric", assertion(sloSrc, "kind: metric-p99-under", "max: 5"), `assertions[1].metric: required`},
		{"metric assertion on an undeclared machine", assertion(sloSrc, "kind: metric-p99-under", "metric: sls.stop.ns", "machine: ghost", "max: 5"), `assertions[1].machine: no machine "ghost"`},
		{"metric-max-under without max", assertion(sloSrc, "kind: metric-max-under", "metric: fleet.orphans"), `assertions[1].max: needs a positive bound`},
		{"metric-p99-under without max", assertion(sloSrc, "kind: metric-p99-under", "metric: sls.stop.ns"), `assertions[1].max: needs a positive bound`},

		// ---- the strict decoder: wrong types, with positioned paths ----
		{"wrong type for name", sub(validSrc, "name: t", "name: 5"), `scenario.name: want string, got integer`},
		{"null name", sub(validSrc, "name: t", "name: null"), `scenario.name: want string, got null`},
		{"wrong type for duration", sub(validSrc, "duration_ms: 10", `duration_ms: "ten"`), `scenario.duration_ms: want integer, got string`},
		{"fractional duration", sub(validSrc, "duration_ms: 10", "duration_ms: 1.5"), `scenario.duration_ms: want integer, got number`},
		{"wrong type for a probability", sub(replSrc, "    to: b\n", "    to: b\n    drop: lots\n"), `replications[0].drop: want number, got string`},
		{"wrong type for a bool", sub(validSrc, "  - name: alpha\n", "  - name: alpha\n    trace: 3\n"), `machines[0].trace: want bool, got integer`},
		{"pages not a list", events(validSrc, "at_ms: 5", "kind: bit-rot", "machine: alpha", "pages: 3"), `events[0].pages: want list of integers, got integer`},
		{"fractional page index", events(validSrc, "at_ms: 5", "kind: bit-rot", "machine: alpha", "pages: [0, 1.5]"), `events[0].pages[1]: want integer, got 1.5`},
		{"page index not a number", events(validSrc, "at_ms: 5", "kind: bit-rot", "machine: alpha", "pages: [0, x]"), `events[0].pages[1]: want integer, got string`},
		{"machines not a list", sub(validSrc, "machines:\n  - name: alpha\n", "machines: 3\n"), `scenario.machines: want a list, got integer`},
		{"machine not an object", sub(validSrc, "  - name: alpha\n", "  - alpha\n"), `scenario.machines[0]: want an object, got string`},
		{"slos not a list", sub(sloSrc, "  slos:\n    - name: stop\n      metric: sls.stop.ns\n      kind: p99-under\n      bound: 1000\n", "  slos: 3\n"), `telemetry.slos: want a list, got integer`},
		{"slo not an object", sub(sloSrc, "    - name: stop\n      metric: sls.stop.ns\n      kind: p99-under\n      bound: 1000\n", "    - stop\n"), `telemetry.slos[0]: want an object, got string`},
		{"telemetry not an object", validSrc + "\ntelemetry: 5\n", `scenario.telemetry: want an object, got integer`},
		{"placement not an object", validSrc + "\nplacement: true\n", `scenario.placement: want an object, got bool`},

		// ---- the strict decoder: unknown fields, first error wins ----
		{"unknown field", validSrc + "\nfleet_size: 3\n", `scenario: unknown field "fleet_size"`},
		{"unknown nested field", events(validSrc, "at_ms: 5", "kind: power-cut", "machine: alpha", "explosion_radius: 9"), `events[0]: unknown field "explosion_radius"`},
		{"unknown telemetry field", sub(sloSrc, "sample_every_ms: 5", "sample_rate: 5"), `telemetry: unknown field "sample_rate"`},
		{"unknown slo field", sub(sloSrc, "      bound: 1000\n", "      bound: 1000\n      severity: page\n"), `telemetry.slos[0]: unknown field "severity"`},
		{"unknown placement field", sub(placeSrc, "sync_every_ms: 5", "quorum: 3"), `placement: unknown field "quorum"`},
		{"first of two unknown fields by name", validSrc + "\nzeta: 1\nbeta: 2\n", `scenario: unknown field "beta"`},
		{"a typed field before an unknown one", sub(validSrc, "name: t", "name: 5") + "\nfleet_size: 3\n", `scenario.name: want string, got integer`},
		{"an earlier section before a later one", sub(validSrc, "  - name: alpha\n", "  - name: alpha\n    trace: 3\n") + "\nevents:\n  - at_ms: soon\n", `machines[0].trace: want bool, got integer`},
		{"a non-object element before its siblings' fields", sub(validSrc, "  - name: alpha\n", "  - name: 7\n  - alpha\n"), `scenario.machines[1]: want an object, got string`},
		{"telemetry before placement", validSrc + "\nplacement: 1\ntelemetry: 2\n", `scenario.telemetry: want an object, got integer`},
	}
	// The needs whole families of assertion kinds share, one case per kind.
	for _, kind := range []string{"audit-clean", "fsck-clean", "fsck-problems", "flight-contains", "group-on"} {
		cases = append(cases, malformedCase{kind + " on an undeclared machine",
			assertion(validSrc, "kind: "+kind, "machine: ghost", "group: demo", "event: power.cut"),
			`assertions[1].machine: no machine "ghost"`})
	}
	for _, kind := range []string{"ops-at-least", "checkpoints-at-least", "group-on", "p99-stop-under-us", "restores-under-us", "durable-window-under-us", "rollbacks-at-most"} {
		cases = append(cases, malformedCase{kind + " of an undeclared group",
			assertion(validSrc, "kind: "+kind, "machine: alpha", "group: ghost", "max_us: 5"),
			`assertions[1].group: no workload declares group "ghost"`})
	}
	for _, kind := range []string{"standby-min-epoch", "syncs-at-least"} {
		cases = append(cases, malformedCase{kind + " without replication",
			assertion(validSrc, "kind: "+kind, "group: demo"),
			`assertions[1].group: no replication declared for group "demo"`})
	}
	for _, kind := range []string{"fleet-health", "failovers-at-least"} {
		cases = append(cases, malformedCase{kind + " without placement",
			assertion(validSrc, "kind: "+kind),
			`assertions[1]: ` + kind + ` needs a placement block`})
	}
	for _, kind := range []string{"metric-max-under", "metric-p99-under", "metric-final-at-least"} {
		cases = append(cases, malformedCase{kind + " without telemetry",
			assertion(validSrc, "kind: "+kind, "metric: sls.stop.ns", "max: 5"),
			`assertions[1]: ` + kind + ` needs a telemetry block`})
	}
	return cases
}

// TestDecodeMalformed drives the strict decoder and validator over the
// whole catalogue of authoring mistakes. Every case must be rejected with
// exactly the pinned text, pointing at the offending field — a CI sweep
// that says "scenario invalid" without saying where is useless to the
// author, and a refactor of the validator must not reword one of them.
func TestDecodeMalformed(t *testing.T) {
	for _, tc := range malformedCases() {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.src))
			if err == nil {
				t.Fatalf("malformed scenario accepted")
			}
			msg := err.Error()
			if msg != tc.want && !slices.Contains(strings.Split(msg, "\n"), "  "+tc.want) {
				t.Fatalf("error %q has no line %q", msg, tc.want)
			}
		})
	}
}

// TestDecodeAcceptsOptionalNeeds pins the two places a need is optional: a
// metric assertion may leave machine unset (fleet-wide) and
// metric-final-at-least takes min, not max.
func TestDecodeAcceptsOptionalNeeds(t *testing.T) {
	for _, src := range []string{
		assertion(sloSrc, "kind: metric-final-at-least", "metric: sls.ckpt.total", "min: 1"),
		assertion(sloSrc, "kind: metric-p99-under", "metric: sls.stop.ns", "machine: alpha", "max: 5"),
		events(validSrc, "at_ms: 5", "kind: checkpoint", "machine: alpha"),
	} {
		if _, err := Parse([]byte(src)); err != nil {
			t.Fatalf("valid scenario rejected: %v\n%s", err, src)
		}
	}
}

// TestGoldenRoundTrip pins the schema: the golden YAML and golden JSON
// decode to the same Scenario, and that Scenario marshals back to exactly
// the golden JSON bytes. Renaming a field, changing a tag, or altering
// omitempty behavior breaks this test — which is the point, since scenario
// files in the wild (and CI matrices built from `scenario list -json`)
// depend on the wire form.
func TestGoldenRoundTrip(t *testing.T) {
	fromYAML, err := Load(filepath.Join("testdata", "golden.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := Load(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromYAML, fromJSON) {
		t.Fatalf("YAML and JSON forms decode differently:\nyaml: %+v\njson: %+v", fromYAML, fromJSON)
	}
	got, err := json.MarshalIndent(fromYAML, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	want, err := os.ReadFile(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("schema drift: re-marshaled golden scenario differs from testdata/golden.json\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestValidateReportsAllProblemsSorted(t *testing.T) {
	src := `
name: ""
duration_ms: -1
machines:
  - name: alpha
assertions:
  - kind: audit-clean
    machine: ghost
`
	_, err := Parse([]byte(src))
	if err == nil {
		t.Fatal("accepted")
	}
	msg := err.Error()
	for _, want := range []string{"name: required", "duration_ms: must be positive", `assertions[0].machine: no machine "ghost"`} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
}

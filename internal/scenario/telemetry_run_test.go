package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"aurora/internal/telemetry"
)

// teleSrc is the telemetry plane end to end: a traced 4-machine fleet
// under the placement coordinator, a mid-run machine kill the heartbeat
// detector has to discover, SLO rules on the sampler cadence, and metric
// assertions over both a per-machine histogram and the coordinator's
// fleet counters.
const teleSrc = `
name: unit-telemetry
duration_ms: 120
seed: 11
machines:
  - name: a
    trace: true
  - name: b
    trace: true
  - name: c
    trace: true
  - name: d
    trace: true
workloads:
  - machine: a
    group: g0
    app: counter
    ops_per_tick: 40
    checkpoint_every_ms: 10
  - machine: b
    group: g1
    app: counter
    ops_per_tick: 20
    checkpoint_every_ms: 10
telemetry:
  sample_every_ms: 5
  slos:
    - name: stop-p99
      metric: sls.stop.ns
      kind: p99-under
      bound: 1000000
    - name: failover-fast
      metric: fleet.failover.ns
      kind: p99-under
      bound: 50000000
placement:
  sync_every_ms: 10
  heartbeat_every_ms: 5
  dead_after_misses: 3
events:
  - at_ms: 60
    kind: machine-dies
    machine: a
assertions:
  - kind: fleet-health
  - kind: failovers-at-least
    min: 1
  - kind: metric-p99-under
    metric: sls.stop.ns
    max: 1000000
  - kind: metric-p99-under
    metric: fleet.failover.ns
    max: 50000000
  - kind: metric-final-at-least
    metric: fleet.failovers
    min: 1
  - kind: metric-final-at-least
    metric: sls.ckpt.total
    min: 10
  - kind: metric-max-under
    metric: fleet.orphans
    max: 1
  - kind: audit-clean
    machine: b
`

func runTele(t *testing.T, src string, opts RunOptions) *Result {
	t.Helper()
	sc, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTelemetryScenarioEndToEnd(t *testing.T) {
	res := runTele(t, teleSrc, RunOptions{})
	if !res.Passed {
		t.Fatalf("scenario failed:\n%s", res.Summary())
	}
	if res.Metrics == nil {
		t.Fatal("no metrics snapshot")
	}
	// Per-machine snapshots in declaration order, coordinator last.
	var names []string
	for _, m := range res.Metrics.Machines {
		names = append(names, m.Machine)
	}
	if got := strings.Join(names, ","); got != "a,b,c,d,fleet" {
		t.Fatalf("snapshot members = %s", got)
	}
	// The fleet-merged histograms cover the stop-time series the paper's
	// headline claim rides on.
	foundStop := false
	for _, h := range res.Metrics.Merged {
		if h.Name == "sls.stop.ns" && h.Count > 0 {
			foundStop = true
		}
	}
	if !foundStop {
		t.Fatal("merged snapshot is missing sls.stop.ns")
	}
	if len(res.SLOBreaches) != 0 {
		t.Fatalf("unexpected breaches: %+v", res.SLOBreaches)
	}
}

func TestTelemetryTimelineFlowStitching(t *testing.T) {
	res := runTele(t, teleSrc, RunOptions{})
	if res.TimelineJSON == "" {
		t.Fatal("no merged timeline despite traced machines")
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(res.TimelineJSON), &events); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	// One process per machine plus the coordinator.
	procs := map[string]bool{}
	var flowOut, flowIn bool
	var promote bool
	for _, ev := range events {
		if ev["name"] == "process_name" {
			args := ev["args"].(map[string]any)
			procs[args["name"].(string)] = true
		}
		switch ev["ph"] {
		case "s":
			flowOut = true
		case "f":
			flowIn = true
		}
		if ev["name"] == "fleet.promote" {
			promote = true
		}
	}
	for _, want := range []string{"a", "b", "c", "d", "coordinator"} {
		if !procs[want] {
			t.Fatalf("timeline is missing process %q (have %v)", want, procs)
		}
	}
	// The kill -> failover -> promote chain must be stitched: the
	// coordinator's failover span emits a flow start ("s") and the promoted
	// machine's fleet.promote instant binds it ("f").
	if !flowOut || !flowIn || !promote {
		t.Fatalf("flow stitching incomplete: out=%v in=%v promote=%v", flowOut, flowIn, promote)
	}
}

func TestTelemetrySnapshotBitIdentical(t *testing.T) {
	a := runTele(t, teleSrc, RunOptions{})
	b := runTele(t, teleSrc, RunOptions{})
	blobA, err := json.Marshal(a.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	blobB, err := json.Marshal(b.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	if string(blobA) != string(blobB) {
		t.Fatal("metrics snapshots differ across identical runs")
	}
	if a.TimelineJSON != b.TimelineJSON {
		t.Fatal("merged timelines differ across identical runs")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("fingerprints differ: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}
}

// breachSrc arms an impossible stop-time SLO so every sampled checkpoint
// trips it; the breach must land in the flight ring, the slo.breaches
// counter (audited by the sls.slo family), and the result — exactly once
// per breach episode, not once per sample.
const breachSrc = `
name: unit-telemetry-breach
duration_ms: 40
seed: 3
machines:
  - name: alpha
workloads:
  - machine: alpha
    group: demo
    app: counter
    ops_per_tick: 20
    checkpoint_every_ms: 5
telemetry:
  sample_every_ms: 5
  slos:
    - name: impossible-stop
      metric: sls.stop.ns
      kind: p99-under
      bound: 1
assertions:
  - kind: audit-clean
    machine: alpha
  - kind: flight-contains
    machine: alpha
    event: slo.breach
  - kind: metric-final-at-least
    metric: slo.breaches
    min: 1
`

func TestSLOBreachSurfaces(t *testing.T) {
	res := runTele(t, breachSrc, RunOptions{})
	if !res.Passed {
		t.Fatalf("scenario failed:\n%s", res.Summary())
	}
	if len(res.SLOBreaches) != 1 {
		t.Fatalf("want exactly one breach episode, got %d: %+v", len(res.SLOBreaches), res.SLOBreaches)
	}
	b := res.SLOBreaches[0]
	if b.Machine != "alpha" || b.SLO != "impossible-stop" || b.Value < b.Bound {
		t.Fatalf("breach misrecorded: %+v", b)
	}
	if res.Metrics == nil || len(res.Metrics.Breaches) != 1 {
		t.Fatal("breach missing from the metrics snapshot")
	}
}

// negativeSrc is the expect:fail twin shape the corpus uses: everything
// passes except one metric-p99-under with an impossible bound.
const negativeSrc = `
name: unit-telemetry-negative
duration_ms: 30
seed: 3
expect: fail
machines:
  - name: alpha
workloads:
  - machine: alpha
    group: demo
    app: counter
    ops_per_tick: 20
    checkpoint_every_ms: 5
telemetry:
  sample_every_ms: 5
assertions:
  - kind: audit-clean
    machine: alpha
  - kind: metric-p99-under
    metric: sls.stop.ns
    max: 1
`

func TestMetricAssertionNegative(t *testing.T) {
	res := runTele(t, negativeSrc, RunOptions{})
	if !res.Passed {
		t.Fatalf("expect:fail scenario did not pass:\n%s", res.Summary())
	}
	// Exactly the metric assertion must have tripped.
	for _, a := range res.Assertions {
		wantPass := a.Decl.Kind != "metric-p99-under"
		if a.Pass != wantPass {
			t.Fatalf("assertion %s pass=%v, want %v (%s)", a.Decl.Kind, a.Pass, wantPass, a.Detail)
		}
	}
}

func TestMetricAssertionMissingMetricFails(t *testing.T) {
	src := strings.Replace(negativeSrc, "metric: sls.stop.ns", "metric: no.such.metric", 1)
	res := runTele(t, src, RunOptions{})
	if !res.Passed {
		t.Fatalf("expect:fail scenario did not pass:\n%s", res.Summary())
	}
	for _, a := range res.Assertions {
		if a.Decl.Kind == "metric-p99-under" {
			if a.Pass || !strings.Contains(a.Detail, "no samples") {
				t.Fatalf("missing metric: pass=%v detail=%q", a.Pass, a.Detail)
			}
		}
	}
}

// TestTelemetryCorpusOneFingerprint: the three corpus scenarios that export
// metrics give one fingerprint over five runs. The fingerprint folds in
// metrics.json and timeline.json, which carry names first touched from
// concurrent goroutines, so any dependence on first-touch order shows up here.
func TestTelemetryCorpusOneFingerprint(t *testing.T) {
	for _, name := range []string{"fleet-observability", "fleet-kill-rebalance", "wal-gc-soak"} {
		sc, err := Load(filepath.Join("..", "..", "scenarios", name+".yaml"))
		if err != nil {
			t.Fatal(err)
		}
		var first string
		for i := 0; i < 5; i++ {
			res, err := Run(sc, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if fp := res.Fingerprint(); i == 0 {
				first = fp
			} else if fp != first {
				t.Fatalf("%s: run %d fingerprint %s, run 0 gave %s", name, i, fp, first)
			}
		}
	}
}

// designNameTable reads the metric name table out of DESIGN.md: one regexp
// per row, a <placeholder> standing for one name segment.
func designNameTable(t *testing.T) []*regexp.Regexp {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), "<!-- metric-names:begin -->")
	body, _, ok2 := strings.Cut(rest, "<!-- metric-names:end -->")
	if !ok || !ok2 {
		t.Fatal("DESIGN.md has no metric-names table markers")
	}
	placeholder := regexp.MustCompile(`<[a-z]+>`)
	var table []*regexp.Regexp
	for _, line := range strings.Split(body, "\n") {
		if name, _, ok := strings.Cut(strings.TrimPrefix(line, "| `"), "`"); ok && strings.HasPrefix(line, "| `") {
			pat := placeholder.ReplaceAllString(regexp.QuoteMeta(name), `[a-z0-9_-]+`)
			table = append(table, regexp.MustCompile("^"+pat+"$"))
		}
	}
	if len(table) < 40 {
		t.Fatalf("metric-names table has only %d rows", len(table))
	}
	return table
}

var (
	metricNameShape = regexp.MustCompile(`^[a-z]+(\.[a-z0-9_-]+)+$`)
	metricLayers    = []string{"dev", "objstore", "sls", "net", "fleet", "audit", "slo"}
)

// checkMetricName is the naming rule: the scheme's shape, a known layer as
// the first segment, and a row in DESIGN.md's table.
func checkMetricName(name string, table []*regexp.Regexp) error {
	if !metricNameShape.MatchString(name) {
		return fmt.Errorf("metric %q does not match %s", name, metricNameShape)
	}
	if layer, _, _ := strings.Cut(name, "."); !slices.Contains(metricLayers, layer) {
		return fmt.Errorf("metric %q: first segment %q is not a layer %v", name, layer, metricLayers)
	}
	for _, row := range table {
		if row.MatchString(name) {
			return nil
		}
	}
	return fmt.Errorf("metric %q is not in DESIGN.md's name table", name)
}

// TestMetricNameTable runs the traced + telemetry fleet scenario and holds
// every name in every machine's store (and the coordinator's) to the rule.
func TestMetricNameTable(t *testing.T) {
	sc, err := Load(filepath.Join("..", "..", "scenarios", "fleet-observability.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	table := designNameTable(t)
	seen := 0
	for _, m := range res.Metrics.Machines {
		names := []string{}
		for _, v := range append(m.Counters, m.Gauges...) {
			names = append(names, v.Name)
		}
		for _, h := range m.Histograms {
			names = append(names, h.Name)
		}
		for _, name := range names {
			seen++
			if err := checkMetricName(name, table); err != nil {
				t.Errorf("machine %s: %v", m.Machine, err)
			}
		}
	}
	if seen < 50 {
		t.Fatalf("only %d metric names reached the snapshot; the single store should export every layer's", seen)
	}
	// The rule has teeth: what a stray tr.Count("oops", 1) would export, a
	// name outside the layers, and a well-shaped name nobody documented.
	for _, planted := range []string{"oops", "flush.queue_depth", "sls.Checkpoints", "sls.undocumented.thing"} {
		if checkMetricName(planted, table) == nil {
			t.Errorf("planted name %q passed the name-table rule", planted)
		}
	}
}

// Compile-time link: the runner records breaches with the telemetry
// package's own Breach type, so snapshot and result can never drift.
var _ = telemetry.Breach{}

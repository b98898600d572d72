package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// crashSrc is a small but eventful scenario: a checkpointing memcached
// workload, a torn power cut, a restore, and forensic assertions. It
// exercises the crash path end to end without taking corpus-run time.
const crashSrc = `
name: unit-crash
duration_ms: 40
seed: 9
machines:
  - name: alpha
workloads:
  - machine: alpha
    group: demo
    app: memcached
    generator: etc
    items: 512
    ops_per_tick: 30
    checkpoint_every_ms: 10
events:
  - at_ms: 20
    kind: power-cut
    machine: alpha
    torn: true
  - at_ms: 22
    kind: restore
    machine: alpha
    group: demo
assertions:
  - kind: flight-contains
    machine: alpha
    event: power.cut
  - kind: audit-clean
    machine: alpha
  - kind: fsck-clean
    machine: alpha
  - kind: group-on
    machine: alpha
    group: demo
`

func TestRunDeterministicFingerprint(t *testing.T) {
	sc, err := Parse([]byte(crashSrc))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Passed {
		t.Fatalf("scenario failed:\n%s", a.Summary())
	}
	sc2, _ := Parse([]byte(crashSrc))
	b, err := Run(sc2, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("same seed, different fingerprints: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}
	// A different seed must actually change the observable run (otherwise
	// the fingerprint is pinning less than it claims).
	sc3, _ := Parse([]byte(crashSrc))
	c, err := Run(sc3, RunOptions{Seed: 1234})
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint() == a.Fingerprint() {
		t.Fatalf("seed override did not change the fingerprint")
	}
}

func TestRunNegativeExpectation(t *testing.T) {
	src := strings.Replace(crashSrc, "name: unit-crash", "name: unit-neg\nexpect: fail", 1)
	src += `
  - kind: ops-at-least
    group: demo
    min: 999999999
`
	sc, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AssertionsOK {
		t.Fatal("impossible assertion reported OK")
	}
	if !res.Passed {
		t.Fatal("expect: fail scenario with tripped assertions must pass")
	}
}

// corpusFingerprints reads testdata/corpus.fingerprints: one "file
// fingerprint" line per corpus scenario at its declared seed. The runs are
// byte-stable on any machine (PR 19), so the file is a golden: a behaviour-
// preserving change to the runner leaves every line alone, and a change that
// moves one has to say so by editing it.
func corpusFingerprints(t *testing.T) map[string]string {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "corpus.fingerprints"))
	if err != nil {
		t.Fatal(err)
	}
	pins := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(blob)), "\n") {
		file, fp, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("corpus.fingerprints: malformed line %q", line)
		}
		pins[file] = fp
	}
	return pins
}

// TestCorpus sweeps the shipped scenarios/ corpus — the same files CI
// fans out over — and requires every one to pass with its declared seed and
// to land on its pinned fingerprint.
func TestCorpus(t *testing.T) {
	dir := filepath.Join("..", "..", "scenarios")
	if _, err := os.Stat(dir); err != nil {
		t.Skipf("no corpus: %v", err)
	}
	files, err := Discover(dir)
	if err != nil {
		t.Fatal(err)
	}
	pins := corpusFingerprints(t)
	if len(files) != len(pins) {
		t.Fatalf("corpus has %d scenarios, corpus.fingerprints pins %d", len(files), len(pins))
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			sc, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(sc, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Passed {
				t.Fatalf("scenario failed:\n%s", res.Summary())
			}
			if got, want := res.Fingerprint(), pins[filepath.Base(path)]; got != want {
				t.Fatalf("fingerprint %s, corpus.fingerprints pins %q", got, want)
			}
		})
	}
}

func TestWriteArtifacts(t *testing.T) {
	sc, err := Parse([]byte(crashSrc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := res.WriteArtifacts(dir); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"summary.txt", "result.json", "flight-alpha.txt"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Fatalf("missing artifact %s: %v", want, err)
		}
	}
	fl, err := os.ReadFile(filepath.Join(dir, "flight-alpha.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fl), "power.cut") {
		t.Fatalf("flight artifact missing the cut:\n%s", fl)
	}
}

// migrateReplSrc: a replicated counter leaves its machine by live migration.
// Outside placement mode nothing retired the replication, so the cadence sync
// kept checkpointing and shipping the exited, forgotten source group — ten
// syncs, six of them after the move, and no error anywhere.
const migrateReplSrc = `
name: unit-migrate-retires-replication
duration_ms: 100
machines:
  - name: a
  - name: b
  - name: c
workloads:
  - machine: a
    group: demo
    app: counter
replications:
  - group: demo
    from: a
    to: b
    sync_every_ms: 10
events:
  - at_ms: 40
    kind: migrate
    group: demo
    to: c
  - at_ms: 60
    kind: sync
    group: demo
assertions:
  - kind: group-on
    machine: c
    group: demo
  - kind: audit-clean
    machine: a
`

func TestMigrateRetiresReplication(t *testing.T) {
	sc, err := Parse([]byte(migrateReplSrc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Fatalf("scenario failed:\n%s", res.Summary())
	}
	// The seed and the syncs at t=0..30 land; t=40 is the move itself.
	if g := res.Groups[0]; g.Syncs > 5 {
		t.Fatalf("%d syncs: the replication went on shipping the migrated-away group\n%s", g.Syncs, res.Summary())
	}
	var late *ExecutedEvent
	for i := range res.Events {
		if res.Events[i].Kind == "sync" {
			late = &res.Events[i]
		}
	}
	if late == nil || late.Err != "replication is down" {
		t.Fatalf("sync after the move: %+v, want it refused with \"replication is down\"", late)
	}
}

// TestTimeBudgetsCompareWholeDurations: a measured time exactly at max_us
// passes its budget and one a nanosecond over fails, for every kind that
// holds a time against max_us. The detail line still reads whole
// microseconds.
func TestTimeBudgetsCompareWholeDurations(t *testing.T) {
	const maxUS = 20
	for _, kind := range []string{"p99-stop-under-us", "durable-window-under-us", "restores-under-us"} {
		for _, c := range []struct {
			d    time.Duration
			pass bool
		}{{maxUS * time.Microsecond, true}, {maxUS*time.Microsecond + 1, false}} {
			d := []time.Duration{c.d}
			r := &Harness{groups: map[string]*groupState{"g": {stopTimes: d, durableWindows: d, restoreTimes: d}}}
			pass, detail := lookup(assertionKinds, kind).do(r, AssertionDecl{Kind: kind, Group: "g", MaxUS: maxUS})
			if pass != c.pass || !strings.Contains(detail, " 20us ") {
				t.Errorf("%s at %v: pass=%v (want %v), detail %q", kind, c.d, pass, c.pass, detail)
			}
		}
	}
}

// tracedCrashSrc is the counter app on one traced machine with no
// telemetry block: cadence checkpoints, a power cut, a lazy restore, and
// the app going on after it.
const tracedCrashSrc = `
name: unit-traced-crash
duration_ms: 100
machines:
  - name: solo
    trace: true
workloads:
  - machine: solo
    group: demo
    app: counter
    checkpoint_every_ms: 10
events:
  - at_ms: 50
    kind: checkpoint
    group: demo
  - at_ms: 50
    kind: power-cut
    machine: solo
  - at_ms: 50
    kind: restore
    machine: solo
    group: demo
    restore_mode: lazy
assertions:
  - kind: group-on
    machine: solo
    group: demo
`

// TestTracedMachineWithoutTelemetryExports: trace: true alone is enough
// for the merged timeline and the machine's rollup. The timeline holds the
// checkpoints and the restore across the cut, and no coordinator track.
func TestTracedMachineWithoutTelemetryExports(t *testing.T) {
	sc, err := Parse([]byte(tracedCrashSrc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Fatalf("scenario failed:\n%s", res.Summary())
	}
	dir := t.TempDir()
	if err := res.WriteArtifacts(dir); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, "timeline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string
		Ph   string
		Args map[string]any
	}
	if err := json.Unmarshal(blob, &events); err != nil {
		t.Fatalf("timeline.json is not a Chrome trace-event array: %v", err)
	}
	spans := make(map[string]int)
	for _, ev := range events {
		if ev.Ph == "X" {
			spans[ev.Name]++
		}
		if ev.Name == "process_name" && ev.Args["name"] == "coordinator" {
			t.Error("a coordinator track without a placement block")
		}
	}
	if spans["checkpoint"] < 5 || spans["restore"] != 1 {
		t.Errorf("timeline has %d checkpoint and %d restore spans, want >= 5 and 1", spans["checkpoint"], spans["restore"])
	}
	roll, err := os.ReadFile(filepath.Join(dir, "rollup-solo.txt"))
	if err != nil || !strings.Contains(string(roll), "spans (virtual time):") {
		t.Errorf("rollup-solo.txt (%v):\n%s", err, roll)
	}
	for _, absent := range []string{"metrics.json", "metrics.prom", "status.txt"} {
		if _, err := os.Stat(filepath.Join(dir, absent)); err == nil {
			t.Errorf("%s written for a scenario that declares no telemetry or placement", absent)
		}
	}
}

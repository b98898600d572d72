package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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

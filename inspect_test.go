package aurora

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

// inspectWorld boots a machine with one checkpointed group and returns it.
func inspectWorld(t *testing.T) (*Machine, *Proc) {
	t.Helper()
	cfg := Defaults()
	cfg.Trace = true
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := m.Spawn("app")
	g, err := m.Attach("app", p)
	if err != nil {
		t.Fatal(err)
	}
	va, err := p.Mmap(1<<20, ProtRead|ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteMem(va, []byte("inspect me")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Pipe(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	return m, p
}

func TestInspectReport(t *testing.T) {
	m, _ := inspectWorld(t)
	r := m.Inspect(0)

	if r.Store.Epoch == 0 || r.Store.ObjectsLive == 0 {
		t.Fatalf("store section empty: %+v", r.Store)
	}
	if len(r.Groups) != 1 || r.Groups[0].Name != "app" {
		t.Fatalf("groups: %+v", r.Groups)
	}
	g := r.Groups[0]
	if g.Checkpoints != 1 || len(g.Procs) != 1 {
		t.Fatalf("group row: %+v", g)
	}
	p := g.Procs[0]
	if p.MapEntries == 0 || len(p.FDs) != 2 {
		t.Fatalf("proc row: %+v", p)
	}
	kinds := map[string]bool{}
	for _, fd := range p.FDs {
		kinds[fd.Kind] = true
	}
	if !kinds["pipe-r"] || !kinds["pipe-w"] {
		t.Fatalf("fd kinds: %+v", p.FDs)
	}
	// The live flight tail saw the checkpoint.
	var begin, end bool
	for _, ev := range r.Flight {
		switch ev.Kind {
		case "ckpt.begin":
			begin = true
		case "ckpt.end":
			end = true
		}
	}
	if !begin || !end {
		t.Fatalf("flight tail missing checkpoint events: %+v", r.Flight)
	}
	if !r.Audit.OK() {
		t.Fatalf("audit: %s", r.Audit)
	}
	// Text renders every section.
	text := r.Text()
	for _, want := range []string{"store:", "groups (1):", "flight tail", "audit: ok"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text missing %q:\n%s", want, text)
		}
	}
}

// TestInspectJSONGolden pins the JSON field names: `sls inspect --json` is a
// machine interface, and silently renaming a key breaks its consumers. New
// fields may be added; the ones listed here must stay.
func TestInspectJSONGolden(t *testing.T) {
	m, _ := inspectWorld(t)
	raw, err := json.Marshal(m.Inspect(8))
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"time_ns", "store", "groups", "flight", "audit"} {
		if _, ok := top[key]; !ok {
			t.Fatalf("top-level key %q missing in %s", key, raw)
		}
	}
	var store map[string]json.RawMessage
	if err := json.Unmarshal(top["store"], &store); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"epoch", "checkpoints", "objects_live", "data_bytes", "meta_bytes", "retained"} {
		if _, ok := store[key]; !ok {
			t.Fatalf("store key %q missing in %s", key, top["store"])
		}
	}
	var groups []map[string]json.RawMessage
	if err := json.Unmarshal(top["groups"], &groups); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"name", "id", "epoch", "checkpoints", "procs"} {
		if _, ok := groups[0][key]; !ok {
			t.Fatalf("group key %q missing in %s", key, top["groups"])
		}
	}
	var flightEvs []map[string]json.RawMessage
	if err := json.Unmarshal(top["flight"], &flightEvs); err != nil {
		t.Fatal(err)
	}
	if len(flightEvs) == 0 {
		t.Fatal("flight section empty")
	}
	for _, key := range []string{"at_ns", "kind", "a", "b", "c"} {
		if _, ok := flightEvs[0][key]; !ok {
			t.Fatalf("flight key %q missing in %s", key, top["flight"])
		}
	}
	var aud map[string]json.RawMessage
	if err := json.Unmarshal(top["audit"], &aud); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"rules", "objects", "violations"} {
		if _, ok := aud[key]; !ok {
			t.Fatalf("audit key %q missing in %s", key, top["audit"])
		}
	}
}

func TestRecoveredFlightAfterCrash(t *testing.T) {
	m, _ := inspectWorld(t)
	// A second checkpoint so the persisted ring holds the first one's
	// events (the ring snapshot is taken at the start of each commit).
	g, _ := m.Group("app")
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	cutAt := m.Now()

	m2, err := m.Crash()
	if err != nil {
		t.Fatal(err)
	}
	evs, seq, ok, err := m2.RecoveredFlight()
	if err != nil {
		t.Fatal(err)
	}
	if !ok || len(evs) == 0 {
		t.Fatalf("no recovered flight (ok=%v, %d events)", ok, len(evs))
	}
	if seq == 0 {
		t.Fatal("recovered seq = 0")
	}
	// Every recovered event predates the crash, and the timeline contains
	// the checkpoint that persisted it.
	var sawBegin bool
	for _, ev := range evs {
		if ev.At > int64(cutAt) {
			t.Fatalf("recovered event after the crash point: %s", ev)
		}
		if ev.Kind.String() == "ckpt.begin" {
			sawBegin = true
		}
	}
	if !sawBegin {
		t.Fatalf("no ckpt.begin in recovered timeline: %v", evs)
	}

	// The rebooted machine restores and passes its self-check.
	g2, _, err := m2.Restore("app")
	if err != nil {
		t.Fatal(err)
	}
	r := m2.Inspect(32)
	if len(r.Recovered) == 0 {
		t.Fatal("inspect shows no recovered flight section")
	}
	if !r.Audit.OK() {
		t.Fatalf("post-restore audit: %s", r.Audit)
	}

	// The recovered timeline is what recovery read: a commit of the new boot
	// neither replaces it nor echoes the new boot's own ring into it.
	if _, err := g2.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	if err := g2.Barrier(); err != nil {
		t.Fatal(err)
	}
	after, afterSeq, ok, err := m2.RecoveredFlight()
	if err != nil || !ok {
		t.Fatalf("recovered flight after a post-boot commit: ok=%v err=%v", ok, err)
	}
	if afterSeq != seq || !slices.Equal(after, evs) {
		t.Fatalf("a post-boot commit changed the recovered timeline: %d events seq %d, was %d events seq %d",
			len(after), afterSeq, len(evs), seq)
	}
	for _, ev := range m2.Flight.Events() {
		if slices.Contains(after, ev) {
			t.Fatalf("recovered timeline holds the new boot's event %s", ev)
		}
	}

	// A machine that never crashed recovered nothing, however often it has
	// committed.
	fresh, _ := inspectWorld(t)
	fg, _ := fresh.Group("app")
	if _, err := fg.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := fresh.RecoveredFlight(); ok || err != nil {
		t.Fatalf("never-crashed machine reports a recovered flight (ok=%v err=%v)", ok, err)
	}
}

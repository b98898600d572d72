package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// End-to-end CLI test: builds the sls binary and drives the full verb set
// against machine images on disk — the closest thing to the paper's
// artifact walkthrough.

func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sls")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func runCLI(t *testing.T, bin string, stdin []byte, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	if stdin != nil {
		cmd.Stdin = bytes.NewReader(stdin)
	}
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("sls %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	img := filepath.Join(dir, "m.img")

	runCLI(t, bin, nil, "-img", img, "init")

	out := runCLI(t, bin, nil, "-img", img, "attach", "-name", "demo", "-steps", "100")
	if !strings.Contains(out, "counter=100") {
		t.Fatalf("attach output: %s", out)
	}

	// A fresh process (a "reboot") continues the counter.
	out = runCLI(t, bin, nil, "-img", img, "restore", "-name", "demo", "-steps", "100")
	if !strings.Contains(out, "counter 100 -> 200") {
		t.Fatalf("restore output: %s", out)
	}

	out = runCLI(t, bin, nil, "-img", img, "ps")
	if !strings.Contains(out, "demo") {
		t.Fatalf("ps output: %s", out)
	}

	out = runCLI(t, bin, nil, "-img", img, "history")
	if !strings.Contains(out, "epoch") {
		t.Fatalf("history output: %s", out)
	}

	// Time travel to a mid-history epoch shows an older counter. (The
	// earliest epochs predate the demo app's first checkpoint.)
	hist := strings.Fields(runCLI(t, bin, nil, "-img", img, "history"))
	epoch := hist[(len(hist)/2)|1] // a middle "epoch N" value
	out = runCLI(t, bin, nil, "-img", img, "timetravel", "-name", "demo", "-epoch", epoch)
	if !strings.Contains(out, "counter=") {
		t.Fatalf("timetravel output: %s", out)
	}

	// Coredump.
	core := filepath.Join(dir, "demo.core")
	runCLI(t, bin, nil, "-img", img, "dump", "-name", "demo", "-o", core)
	data, err := os.ReadFile(core)
	if err != nil || len(data) < 64 || string(data[:4]) != "\x7fELF" {
		t.Fatalf("coredump invalid: err=%v len=%d", err, len(data))
	}

	// Migration: send from m.img, receive into b.img.
	img2 := filepath.Join(dir, "b.img")
	runCLI(t, bin, nil, "-img", img2, "init")
	stream := runRaw(t, bin, nil, "-img", img, "send", "-name", "demo")
	runCLI(t, bin, stream, "-img", img2, "recv")
	out = runCLI(t, bin, nil, "-img", img2, "restore", "-name", "demo", "-steps", "10")
	if !strings.Contains(out, "counter 200 -> 210") {
		t.Fatalf("migrated restore output: %s", out)
	}

	// Suspend, resume, fsck.
	runCLI(t, bin, nil, "-img", img, "suspend", "-name", "demo")
	out = runCLI(t, bin, nil, "-img", img, "restore", "-name", "demo", "-steps", "1")
	if !strings.Contains(out, "-> 201") {
		t.Fatalf("post-suspend restore: %s", out)
	}
	out = runCLI(t, bin, nil, "-img", img, "fsck")
	if !strings.Contains(out, "consistent") {
		t.Fatalf("fsck output: %s", out)
	}
}

// TestCLIReplicate drives the replicate verb over a lossy simulated wire:
// the standby image must end up restorable at the last synced counter.
func TestCLIReplicate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	img := filepath.Join(dir, "primary.img")
	stb := filepath.Join(dir, "standby.img")

	runCLI(t, bin, nil, "-img", img, "init")
	runCLI(t, bin, nil, "-img", stb, "init")
	runCLI(t, bin, nil, "-img", img, "attach", "-name", "demo", "-steps", "100")

	out := runCLI(t, bin, nil, "-img", img, "replicate",
		"-name", "demo", "-dst", stb, "-syncs", "2", "-steps", "25",
		"-drop", "0.05", "-dup", "0.05", "-corrupt", "0.05", "-seed", "7")
	if !strings.Contains(out, "sync 2: counter=150") {
		t.Fatalf("replicate output: %s", out)
	}
	if !strings.Contains(out, "2 syncs") && !strings.Contains(out, "3 syncs") {
		t.Fatalf("replicate output missing totals: %s", out)
	}

	// Failover: the standby image restores the app at the last synced state.
	out = runCLI(t, bin, nil, "-img", stb, "restore", "-name", "demo", "-steps", "10")
	if !strings.Contains(out, "counter 150 -> 160") {
		t.Fatalf("standby restore output: %s", out)
	}
	out = runCLI(t, bin, nil, "-img", stb, "fsck")
	if !strings.Contains(out, "consistent") {
		t.Fatalf("standby fsck output: %s", out)
	}
}

// runRaw returns stdout alone (binary streams).
func runRaw(t *testing.T, bin string, stdin []byte, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(bin, args...)
	if stdin != nil {
		cmd.Stdin = bytes.NewReader(stdin)
	}
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("sls %v: %v\n%s", args, err, stderr.String())
	}
	return stdout.Bytes()
}

func TestCLIBadUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)
	if err := exec.Command(bin, "bogus-verb").Run(); err == nil {
		t.Fatal("unknown verb succeeded")
	}
	if err := exec.Command(bin, "-img", "/nonexistent/x.img", "ps").Run(); err == nil {
		t.Fatal("missing image succeeded")
	}
}

// TestCLIDemoVerbs drives the four image-less verbs — fleet status, top,
// metrics, trace — which declare a scenario from their flags and run it on
// the scenario engine. The numbers are the engine's to move; what is pinned
// is the shape: the headers and line prefixes CI greps and people read.
func TestCLIDemoVerbs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)
	hasLine := func(out, prefix string) bool {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, prefix) {
				return true
			}
		}
		return false
	}

	out := runCLI(t, bin, nil, "fleet", "status", "-kill", "m1")
	for _, want := range []string{
		"fleet: 4 machines (3 alive), 3 groups (0 orphaned)",
		"  failovers=1 rebalances=0 sync_errors=0",
		"  node  m1       dead ",
		"  group g1       primary=m2 ",
		"  slo: 0 breaches",
	} {
		if !hasLine(out, want) {
			t.Errorf("fleet status: no line starting %q:\n%s", want, out)
		}
	}
	// The decision log: the kill, the detector noticing, the failover.
	log := regexp.MustCompile(`(?m)^\[ *\d+\.\d{3}ms\] (machine-dies +m1|dead +m1|failover +g1 m1->m2)$`)
	if got := len(log.FindAllString(out, -1)); got != 3 {
		t.Errorf("fleet status: %d of the 3 decision-log lines:\n%s", got, out)
	}
	if out := runCLI(t, bin, nil, "fleet", "status", "-machines", "3", "-groups", "2", "-ticks", "20"); !hasLine(out, "fleet: 3 machines (3 alive), 2 groups (0 orphaned)") {
		t.Errorf("fleet status without a kill:\n%s", out)
	}

	out = runCLI(t, bin, nil, "top", "-kill", "m1")
	for _, want := range []string{
		"MACHINE  UP        LOAD  CKPTS   STOP-P99    WAL  RESTORES  SYNCS",
		"m0       yes ",
		"m1       DEAD ",
		"fleet: alive=3 deaths=1 failovers=1 ",
		"fleet: failover p99 ",
		"slo: all objectives met",
	} {
		if !hasLine(out, want) {
			t.Errorf("top: no line starting %q:\n%s", want, out)
		}
	}

	out = runCLI(t, bin, nil, "metrics", "-steps", "100", "-format", "prom")
	for _, want := range []string{
		"# TYPE aurora_sls_ckpt_total counter",
		`aurora_sls_ckpt_total{machine="demo-machine"} `,
		`aurora_sls_restores{machine="demo-machine"} 1`,
	} {
		if !hasLine(out, want) {
			t.Errorf("metrics -format prom: no line starting %q:\n%s", want, out)
		}
	}
	snapFile := filepath.Join(t.TempDir(), "metrics.json")
	runCLI(t, bin, nil, "metrics", "-steps", "100", "-format", "json", "-o", snapFile)
	var snap struct {
		Machine  string
		Counters []struct{ Name string }
		Series   []struct{ Name string }
	}
	if blob, err := os.ReadFile(snapFile); err != nil || json.Unmarshal(blob, &snap) != nil {
		t.Fatalf("metrics -format json: unreadable snapshot (%v)", err)
	}
	if snap.Machine != "demo-machine" || len(snap.Counters) == 0 || len(snap.Series) == 0 {
		t.Errorf("metrics -format json: snapshot %+v", snap)
	}

	traceFile := filepath.Join(t.TempDir(), "trace.json")
	out = runCLI(t, bin, nil, "trace", "-steps", "50", "-o", traceFile)
	if !hasLine(out, "counter ended at 100; trace written to "+traceFile) {
		t.Errorf("trace: the counter did not survive the crash at 100:\n%s", out)
	}
	var spans []map[string]any
	if blob, err := os.ReadFile(traceFile); err != nil || json.Unmarshal(blob, &spans) != nil || len(spans) == 0 {
		t.Errorf("trace: %s is not a Chrome trace-event array (%v)", traceFile, err)
	}
}

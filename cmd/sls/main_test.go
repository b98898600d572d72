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

// TestCLIScenarioArtifacts runs the telemetry showcase scenario through
// `sls scenario run -artifacts` and reads back what a run of it exports: the
// coordinator's status page, the metrics snapshot as Prometheus text and as
// JSON, the merged Chrome timeline and a machine's rollup. The numbers are
// the engine's to move; what is pinned is the shape: the headers and line
// prefixes CI greps and people read. trace, metrics, top and fleet are
// not sls commands.
func TestCLIScenarioArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	runCLI(t, bin, nil, "scenario", "run", "-artifacts", dir, filepath.Join("..", "..", "scenarios", "fleet-observability.yaml"))
	art := func(name string) string {
		t.Helper()
		blob, err := os.ReadFile(filepath.Join(dir, "fleet-observability", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	hasLine := func(out, prefix string) bool {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, prefix) {
				return true
			}
		}
		return false
	}

	status := art("status.txt")
	for _, want := range []string{
		"fleet: 4 machines (3 alive), 2 groups (0 orphaned)",
		"  failovers=1 rebalances=0 sync_errors=0",
		"  node  a        dead ",
		"  group g0       primary=b ",
		"  slo: 0 breaches",
	} {
		if !hasLine(status, want) {
			t.Errorf("status.txt: no line starting %q:\n%s", want, status)
		}
	}

	prom := art("metrics.prom")
	for _, want := range []string{
		"# TYPE aurora_sls_ckpt_total counter",
		`aurora_sls_ckpt_total{machine="a"} `,
		`aurora_fleet_failovers{machine="fleet"} 1`,
	} {
		if !hasLine(prom, want) {
			t.Errorf("metrics.prom: no line starting %q", want)
		}
	}

	var snap struct {
		Machines []struct {
			Machine  string
			Counters []struct {
				Name  string
				Value int64
			}
		}
	}
	if err := json.Unmarshal([]byte(art("metrics.json")), &snap); err != nil || len(snap.Machines) == 0 {
		t.Fatalf("metrics.json: unreadable snapshot (%v)", err)
	}
	ckpts := int64(0)
	for _, c := range snap.Machines[0].Counters {
		if c.Name == "sls.ckpt.total" {
			ckpts = c.Value
		}
	}
	if snap.Machines[0].Machine != "a" || ckpts == 0 {
		t.Errorf("metrics.json: machine %q counts %d checkpoints", snap.Machines[0].Machine, ckpts)
	}

	var events []struct{ Name, Ph string }
	if err := json.Unmarshal([]byte(art("timeline.json")), &events); err != nil {
		t.Fatalf("timeline.json is not a Chrome trace-event array: %v", err)
	}
	spans := make(map[string]int)
	for _, ev := range events {
		if ev.Ph == "X" {
			spans[ev.Name]++
		}
	}
	if spans["checkpoint"] == 0 || spans["restore"] == 0 {
		t.Errorf("timeline.json: %d checkpoint and %d restore spans", spans["checkpoint"], spans["restore"])
	}

	if roll := art("rollup-b.txt"); !hasLine(roll, "spans (virtual time):") {
		t.Errorf("rollup-b.txt has no span section:\n%s", roll)
	}

	for _, verb := range [][]string{{"trace"}, {"metrics"}, {"top"}, {"fleet", "status"}} {
		out, err := exec.Command(bin, verb...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), "unknown command") {
			t.Errorf("sls %s: err=%v, want an unknown command:\n%s", verb[0], err, out)
		}
		if regexp.MustCompile(`(?m)^  ` + verb[0] + ` `).Match(out) {
			t.Errorf("usage still lists %q:\n%s", verb[0], out)
		}
	}
}

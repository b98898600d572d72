package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestFilebenchCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := filepath.Join(t.TempDir(), "filebench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-fs", "aurora", "-workload", "varmail", "-duration", "30ms").CombinedOutput()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "varmail") || !strings.Contains(string(out), "ops/s") {
		t.Fatalf("output: %s", out)
	}
	if err := exec.Command(bin, "-fs", "ntfs").Run(); err == nil {
		t.Fatal("unknown fs accepted")
	}
	if err := exec.Command(bin, "-workload", "compile-kernel").Run(); err == nil {
		t.Fatal("unknown workload accepted")
	}
	// -all walks one ordered table: two runs print the same lines in the
	// same order (it ranged over a map once).
	var all [2]string
	for i := range all {
		out, err := exec.Command(bin, "-all", "-duration", "5ms").CombinedOutput()
		if err != nil {
			t.Fatalf("-all: %v\n%s", err, out)
		}
		all[i] = string(out)
	}
	if all[0] != all[1] {
		t.Fatalf("-all output differs between two runs:\n%s\n---\n%s", all[0], all[1])
	}
	if n := strings.Count(all[0], "ops/s"); n != 28 {
		t.Fatalf("-all printed %d results, want 7 workloads x 4 file systems:\n%s", n, all[0])
	}
}

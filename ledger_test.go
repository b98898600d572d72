package aurora

// The perf ledger. Each workload BENCHMARK.json declares has a
// BENCH_<workload>.json at the root holding what
//
//	bash bench/run.sh --workload <workload> --seed 1 --seconds 10 --trace 0
//
// reports on its last line: the attempted and failed operation counts, every
// virtual-clock figure and write_amp. These are functions of the seed, and a
// change that moves one updates the file in the same commit: their history is
// the before/after record. Host-clock figures depend on the machine and are
// not kept.
//
// TestPerfLedger always checks the files against BENCHMARK.json. When
// AURORA_BENCH_REPORTS names a directory holding <workload>.json for every
// workload — run.sh's output for the command above, its last line the
// report — it also holds every figure to the ledger.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// ledgerEntry is one BENCH_<workload>.json.
type ledgerEntry struct {
	Workload  string             `json:"workload"`
	Command   string             `json:"command"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Figures   map[string]float64 `json:"figures"`
}

// benchManifest is the part of BENCHMARK.json the ledger follows.
type benchManifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
	} `json:"end_to_end"`
}

// ledgered reports whether an end-to-end metric belongs in the ledger.
func ledgered(name string) bool { return strings.HasPrefix(name, "virt_") || name == "write_amp" }

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func TestPerfLedger(t *testing.T) {
	var man benchManifest
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range man.EndToEnd {
		if ledgered(m.Name) {
			names = append(names, m.Name)
		}
	}
	slices.Sort(names)
	if len(names) == 0 {
		t.Fatal("BENCHMARK.json declares no virtual-clock metric")
	}

	ledger := map[string]ledgerEntry{}
	for _, w := range man.Workloads {
		var ent ledgerEntry
		readJSON(t, "BENCH_"+w.Name+".json", &ent)
		if ent.Workload != w.Name {
			t.Errorf("BENCH_%s.json names workload %q", w.Name, ent.Workload)
		}
		if want := fmt.Sprintf("bash bench/run.sh --workload %s --seed 1 --seconds 10 --trace 0", w.Name); ent.Command != want {
			t.Errorf("BENCH_%s.json: command %q, want %q", w.Name, ent.Command, want)
		}
		if got := slices.Sorted(maps.Keys(ent.Figures)); !slices.Equal(got, names) {
			t.Errorf("BENCH_%s.json: figures %v, BENCHMARK.json declares %v", w.Name, got, names)
		}
		if ent.Failed != 0 || ent.Attempted <= 0 {
			t.Errorf("BENCH_%s.json: attempted %d, failed %d", w.Name, ent.Attempted, ent.Failed)
		}
		ledger[w.Name] = ent
	}
	files, _ := filepath.Glob("BENCH_*.json")
	if len(files) != len(man.Workloads) {
		t.Errorf("%d BENCH_*.json files for %d workloads: %v", len(files), len(man.Workloads), files)
	}

	dir := os.Getenv("AURORA_BENCH_REPORTS")
	if dir == "" {
		t.Log("AURORA_BENCH_REPORTS unset: fresh reports not compared")
		return
	}
	for _, w := range man.Workloads {
		ent := ledger[w.Name]
		rep := lastReport(t, filepath.Join(dir, w.Name+".json"))
		if rep.Attempted != ent.Attempted || rep.Failed != ent.Failed {
			t.Errorf("%s: attempted %d failed %d, ledger %d and %d", w.Name, rep.Attempted, rep.Failed, ent.Attempted, ent.Failed)
		}
		for _, name := range names {
			if m, ok := rep.Metrics[name]; !ok || m.Value != ent.Figures[name] {
				t.Errorf("%s: %s = %v (reported %v), ledger %v", w.Name, name, m.Value, ok, ent.Figures[name])
			}
		}
	}
}

// benchReport is the summary line bench/run.sh prints last.
type benchReport struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func lastReport(t *testing.T, path string) benchReport {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	var rep benchReport
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%s: last line is not a report: %v", path, err)
	}
	return rep
}

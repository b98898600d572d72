// Command slsbench regenerates the paper's evaluation (§9): one subcommand
// per table and figure, printing the same rows or series the paper reports.
//
//	slsbench all                 # everything, full scale
//	slsbench -quick all          # everything, CI-sized
//	slsbench table5 fig4         # a subset
//
// Experiments: table1, fig3a, fig3b, fig3c, fig3d, table4, table5, table6,
// fig4, fig5, fig6, table7, repl (replication lag under lossy wires),
// walwindow, fleet, restore (serial vs speculative time to first request).
//
// The crash-demo trace, the post-restore inspect page and the scenario
// corpus have their own surfaces: sls trace, sls -img F inspect and
// sls scenario run.
//
// With -results DIR, every experiment additionally writes a
// BENCH_<experiment>.json artifact under DIR — the typed result rows the
// table rendered, plus scale and wall time — the machine-readable record
// CI uploads so runs can be compared without scraping stdout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"aurora/internal/experiments"
)

type runner struct {
	name string
	fn   func(experiments.Scale) (renderer, error)
}

type renderer interface{ Render() string }

// wrap adapts the typed experiment functions.
func wrap[T renderer](fn func(experiments.Scale) (T, error)) func(experiments.Scale) (renderer, error) {
	return func(s experiments.Scale) (renderer, error) { return fn(s) }
}

func main() {
	quick := flag.Bool("quick", false, "CI-sized working sets")
	results := flag.String("results", "", "write BENCH_<experiment>.json artifacts under DIR")
	flag.Parse()

	scale := experiments.Full
	if *quick {
		scale = experiments.Quick
	}

	all := []runner{
		{"table1", wrap(experiments.Table1)},
		{"fig3a", wrap(experiments.Fig3a)},
		{"fig3b", wrap(experiments.Fig3b)},
		{"fig3c", wrap(experiments.Fig3c)},
		{"fig3d", wrap(experiments.Fig3d)},
		{"table4", func(experiments.Scale) (renderer, error) { return experiments.Table4() }},
		{"table5", wrap(experiments.Table5)},
		{"table6", wrap(experiments.Table6)},
		{"fig4", wrap(experiments.Fig4)},
		{"fig5", wrap(experiments.Fig5)},
		{"fig6", wrap(experiments.Fig6)},
		{"table7", wrap(experiments.Table7)},
		{"repl", wrap(experiments.Replication)},
		{"walwindow", wrap(experiments.WALWindow)},
		{"fleet", wrap(experiments.Fleet)},
		{"restore", wrap(experiments.RestoreBench)},
	}
	byName := map[string]runner{}
	for _, r := range all {
		byName[r.name] = r
	}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: slsbench [-quick] [-results DIR] all | EXPERIMENT...")
		os.Exit(2)
	}
	var todo []runner
	for _, a := range args {
		if a == "all" {
			todo = all
			break
		}
		r, ok := byName[a]
		if !ok {
			fmt.Fprintf(os.Stderr, "slsbench: unknown experiment %q\n", a)
			os.Exit(2)
		}
		todo = append(todo, r)
	}

	for _, r := range todo {
		start := time.Now()
		res, err := r.fn(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "slsbench: %s: %v\n", r.name, err)
			os.Exit(1)
		}
		wall := time.Since(start)
		fmt.Println(res.Render())
		fmt.Printf("[%s completed in %v wall time]\n\n", r.name, wall.Round(time.Millisecond))
		if *results != "" {
			if err := writeBenchArtifact(*results, r.name, *quick, res, wall); err != nil {
				fmt.Fprintf(os.Stderr, "slsbench: %s: artifact: %v\n", r.name, err)
				os.Exit(1)
			}
		}
	}
}

// benchArtifact is the machine-readable record one experiment leaves
// behind: the typed result struct the renderer printed, plus enough
// context (scale, wall time) to compare artifacts across CI runs.
type benchArtifact struct {
	Experiment string `json:"experiment"`
	Scale      string `json:"scale"`
	WallMS     int64  `json:"wall_ms"`
	Result     any    `json:"result"`
}

// writeBenchArtifact dumps BENCH_<experiment>.json under dir. The result
// rows are virtual-clock measurements — deterministic across runs —
// while wall_ms is the host-time cost of regenerating them.
func writeBenchArtifact(dir, name string, quick bool, res any, wall time.Duration) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	scaleName := "full"
	if quick {
		scaleName = "quick"
	}
	blob, err := json.MarshalIndent(benchArtifact{
		Experiment: name,
		Scale:      scaleName,
		WallMS:     wall.Milliseconds(),
		Result:     res,
	}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+name+".json")
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

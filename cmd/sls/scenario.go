package main

// The `sls scenario` verb family: the declarative chaos engine's CLI.
// Scenarios are data files (YAML or JSON) declaring a fleet, a workload
// mix, timed fault events, and assertions; the runner executes them on one
// shared virtual timeline, deterministically per seed. `validate` checks a
// corpus without running it, `list` enumerates one (optionally as a JSON
// matrix for CI), and `run` executes and reports.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"aurora/internal/scenario"
)

func cmdScenario(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: sls scenario run|validate|list ...\n%s", scenario.Help())
	}
	switch args[0] {
	case "run":
		return cmdScenarioRun(args[1:])
	case "validate":
		return cmdScenarioValidate(args[1:])
	case "list":
		return cmdScenarioList(args[1:])
	default:
		return fmt.Errorf("unknown scenario subcommand %q (want run, validate, or list)", args[0])
	}
}

// scenarioPaths expands arguments into scenario files: a directory becomes
// its corpus, a file is itself.
func scenarioPaths(args []string) ([]string, error) {
	var out []string
	for _, a := range args {
		info, err := os.Stat(a)
		if err != nil {
			return nil, err
		}
		if info.IsDir() {
			files, err := scenario.Discover(a)
			if err != nil {
				return nil, err
			}
			out = append(out, files...)
			continue
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no scenario files given")
	}
	return out, nil
}

func cmdScenarioRun(args []string) error {
	fs := flag.NewFlagSet("scenario run", flag.ExitOnError)
	seed := fs.Int64("seed", 0, "override the scenario seed (0 keeps the declared one)")
	stretch := fs.Int64("stretch", 0, "multiply the scenario duration (soak runs)")
	artifacts := fs.String("artifacts", "", "directory for per-scenario forensic artifacts")
	verbose := fs.Bool("v", false, "log events as they fire")
	failArtifacts := fs.Bool("artifacts-on-fail", false, "write artifacts only for failing scenarios")
	fs.Parse(args)

	paths, err := scenarioPaths(fs.Args())
	if err != nil {
		return err
	}
	failed := 0
	for _, path := range paths {
		sc, err := scenario.Load(path)
		if err != nil {
			return err
		}
		opts := scenario.RunOptions{Seed: *seed, Stretch: *stretch}
		if *verbose {
			opts.Logf = func(format string, a ...any) {
				fmt.Printf("  | "+format+"\n", a...)
			}
		}
		res, err := scenario.Run(sc, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Print(res.Summary())
		if !res.Passed {
			failed++
		}
		if *artifacts != "" && (!*failArtifacts || !res.Passed) {
			dir := filepath.Join(*artifacts, sc.Name)
			if err := res.WriteArtifacts(dir); err != nil {
				return fmt.Errorf("writing artifacts for %s: %w", sc.Name, err)
			}
			fmt.Printf("  artifacts: %s\n", dir)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d scenarios failed", failed, len(paths))
	}
	return nil
}

func cmdScenarioValidate(args []string) error {
	fs := flag.NewFlagSet("scenario validate", flag.ExitOnError)
	fs.Parse(args)
	paths, err := scenarioPaths(fs.Args())
	if err != nil {
		return err
	}
	bad := 0
	for _, path := range paths {
		sc, err := scenario.Load(path)
		if err != nil {
			fmt.Printf("INVALID %s\n  %v\n", path, indentErr(err))
			bad++
			continue
		}
		fmt.Printf("ok      %s\n", path)
		// Report the effective values of runner defaults, so a scenario
		// author sees what an unset knob actually runs as.
		for i := range sc.Workloads {
			w := &sc.Workloads[i]
			if w.OpsPerTick <= 0 {
				fmt.Printf("          workload %s: ops_per_tick=%d (default)\n",
					workloadLabel(w), w.EffectiveOpsPerTick())
			}
		}
		for i := range sc.Events {
			e := &sc.Events[i]
			if e.Kind == "migrate" && e.Rounds <= 0 {
				fmt.Printf("          event t=%dms migrate %s->%s: rounds=%d (default)\n",
					e.AtMS, e.Group, e.To, e.EffectiveRounds())
			}
		}
		if p := sc.Placement; p != nil {
			cfg := p.EffectiveConfig()
			var defs []string
			if p.SyncEveryMS <= 0 {
				defs = append(defs, fmt.Sprintf("sync_every_ms=%d", cfg.SyncEvery.Milliseconds()))
			}
			if p.HeartbeatEveryMS <= 0 {
				defs = append(defs, fmt.Sprintf("heartbeat_every_ms=%d", cfg.HeartbeatEvery.Milliseconds()))
			}
			if p.DeadAfterMisses <= 0 {
				defs = append(defs, fmt.Sprintf("dead_after_misses=%d", cfg.DeadAfterMisses))
			}
			if p.HotFactor <= 0 {
				defs = append(defs, fmt.Sprintf("hot_factor=%g", cfg.HotFactor))
			}
			if p.MigrateRounds <= 0 {
				defs = append(defs, fmt.Sprintf("migrate_rounds=%d", cfg.MigrateRounds))
			}
			if len(defs) > 0 {
				fmt.Printf("          placement: %s (default)\n", strings.Join(defs, " "))
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d scenarios invalid", bad, len(paths))
	}
	return nil
}

func indentErr(err error) string {
	return strings.ReplaceAll(err.Error(), "\n", "\n  ")
}

// workloadLabel names a workload for validate output: group@machine, or the
// bare machine for group-less (filebench) workloads.
func workloadLabel(w *scenario.WorkloadDecl) string {
	if w.Group != "" {
		return w.Group + "@" + w.Machine
	}
	return w.App + "@" + w.Machine
}

func cmdScenarioList(args []string) error {
	fs := flag.NewFlagSet("scenario list", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit a JSON array (CI matrix input)")
	fs.Parse(args)
	paths, err := scenarioPaths(fs.Args())
	if err != nil {
		return err
	}
	type entry struct {
		Name string `json:"name"`
		Path string `json:"path"`
	}
	var entries []entry
	for _, path := range paths {
		sc, err := scenario.Load(path)
		if err != nil {
			return err
		}
		entries = append(entries, entry{Name: sc.Name, Path: path})
	}
	if *asJSON {
		return json.NewEncoder(os.Stdout).Encode(entries)
	}
	for _, e := range entries {
		fmt.Printf("%-24s %s\n", e.Name, e.Path)
	}
	return nil
}

package experiments

import (
	"fmt"
	"time"

	"aurora/internal/clock"
	"aurora/internal/filebench"
	"aurora/internal/vfs"
)

// Figure 3: FileBench microbenchmarks comparing the Aurora file system
// (checkpointing at a 10 ms period) against ZFS (with and without
// checksums) and FFS (SU+J).

// FSNames is the comparison order used in all Figure 3 panels.
var FSNames = filebench.FSNames

// Fig3Result holds one panel: workload -> fs -> result.
type Fig3Result struct {
	Panel   string
	Results map[string]map[string]filebench.Result // workload -> fs
	order   []string
}

// Render prints the panel.
func (r Fig3Result) Render() string {
	header := append([]string{"Workload"}, FSNames...)
	var rows [][]string
	for _, wl := range r.order {
		row := []string{wl}
		for _, fs := range FSNames {
			res := r.Results[wl][fs]
			if r.Panel == "fig3a" || r.Panel == "fig3b" {
				row = append(row, fmtGiBps(res))
			} else {
				row = append(row, fmtOps(res.OpsPerSec())+" ops/s")
			}
		}
		rows = append(rows, row)
	}
	return "Figure 3(" + r.Panel[len(r.Panel)-1:] + "): FileBench, " + panelTitle(r.Panel) + "\n" + table(header, rows)
}

func fmtGiBps(res filebench.Result) string {
	return fmt.Sprintf("%.2f GiB/s", res.GiBPerSec())
}

func panelTitle(p string) string {
	switch p {
	case "fig3a":
		return "64 KiB writes"
	case "fig3b":
		return "4 KiB writes"
	case "fig3c":
		return "file system operations"
	default:
		return "simulated applications"
	}
}

// fig3Config sizes the workloads.
func fig3Config(clk *clock.Virtual, scale Scale, iosize int) filebench.Config {
	cfg := filebench.Config{
		Clock:    clk,
		IOSize:   iosize,
		Seed:     1,
		Duration: 400 * time.Millisecond,
		FileSize: 256 << 20,
		NFiles:   64,
	}
	if scale == Quick {
		cfg.Duration = 60 * time.Millisecond
		cfg.FileSize = 32 << 20
		cfg.NFiles = 16
	}
	return cfg
}

// runPanel executes a set of (workload, iosize) pairs across all mounts.
func runPanel(panel string, scale Scale, wls []panelWorkload) (Fig3Result, error) {
	out := Fig3Result{Panel: panel, Results: make(map[string]map[string]filebench.Result)}
	for _, wl := range wls {
		out.order = append(out.order, wl.name)
		out.Results[wl.name] = make(map[string]filebench.Result)
		for _, fsName := range FSNames {
			// A fresh mount per cell: panels measure steady-state
			// behaviour of one workload, not cross-contamination.
			clk := clock.NewVirtual()
			size := int64(16 << 30)
			if scale == Quick {
				size = 4 << 30
			}
			fs, err := filebench.Mount(fsName, clk, clock.DefaultCosts(), size)
			if err != nil {
				return out, err
			}
			res, err := wl.fn(fs, fig3Config(clk, scale, wl.iosize))
			if err != nil {
				return out, err
			}
			out.Results[wl.name][fsName] = res
		}
	}
	return out, nil
}

type panelWorkload struct {
	name   string
	iosize int
	fn     func(vfs.FileSystem, filebench.Config) (filebench.Result, error)
}

// Fig3a: 64 KiB random and sequential writes.
func Fig3a(scale Scale) (Fig3Result, error) {
	return runPanel("fig3a", scale, []panelWorkload{
		{"random", 64 << 10, filebench.RandomWrite},
		{"sequential", 64 << 10, filebench.SeqWrite},
	})
}

// Fig3b: 4 KiB random and sequential writes.
func Fig3b(scale Scale) (Fig3Result, error) {
	return runPanel("fig3b", scale, []panelWorkload{
		{"random", 4096, filebench.RandomWrite},
		{"sequential", 4096, filebench.SeqWrite},
	})
}

// Fig3c: createfiles and write+fsync at 4 KiB and 64 KiB.
func Fig3c(scale Scale) (Fig3Result, error) {
	return runPanel("fig3c", scale, []panelWorkload{
		{"createfiles", 4096, filebench.CreateFiles},
		{"fsync 4 KiB", 4096, filebench.WriteFsync},
		{"fsync 64 KiB", 64 << 10, filebench.WriteFsync},
	})
}

// Fig3d: fileserver, varmail, webserver personalities.
func Fig3d(scale Scale) (Fig3Result, error) {
	return runPanel("fig3d", scale, []panelWorkload{
		{"fileserver", 16 << 10, filebench.FileServer},
		{"varmail", 16 << 10, filebench.VarMail},
		{"webserver", 32 << 10, filebench.WebServer},
	})
}

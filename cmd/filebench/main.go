// Command filebench runs the FileBench workloads (§9.1) against any of the
// simulated file systems: the Aurora file system, FFS (SU+J), or ZFS (with
// or without checksums).
//
//	filebench -fs aurora -workload varmail
//	filebench -fs zfs -workload randomwrite -iosize 65536
//	filebench -all
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"aurora/internal/clock"
	"aurora/internal/filebench"
	"aurora/internal/vfs"
)

func main() {
	fsName := flag.String("fs", "aurora", "file system: "+strings.Join(filebench.FSNames, ", "))
	wlName := flag.String("workload", "randomwrite", "workload name")
	iosize := flag.Int("iosize", 4096, "IO size in bytes")
	dur := flag.Duration("duration", 400*time.Millisecond, "virtual run duration")
	all := flag.Bool("all", false, "run every workload on every file system")
	flag.Parse()

	ran := false
	for _, wl := range filebench.Workloads {
		for _, fs := range filebench.FSNames {
			if !*all && (wl.Name != *wlName || fs != *fsName) {
				continue
			}
			ran = true
			if err := run(fs, wl.Run, *iosize, *dur); err != nil {
				fmt.Fprintln(os.Stderr, "filebench:", err)
				os.Exit(1)
			}
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "filebench: unknown file system %q or workload %q\n", *fsName, *wlName)
		os.Exit(2)
	}
}

func run(fsName string, wl func(vfs.FileSystem, filebench.Config) (filebench.Result, error), iosize int, dur time.Duration) error {
	clk := clock.NewVirtual()
	fs, err := filebench.Mount(fsName, clk, clock.DefaultCosts(), 16<<30)
	if err != nil {
		return err
	}
	res, err := wl(fs, filebench.Config{
		Clock:    clk,
		Duration: dur,
		IOSize:   iosize,
		FileSize: 256 << 20,
		NFiles:   64,
		Seed:     1,
	})
	if err != nil {
		return err
	}
	fmt.Println(res.String())
	return nil
}

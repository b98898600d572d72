// timetravel: execution-history debugging (§3, §7).
//
// Aurora's object store retains the application's execution history as a
// series of incremental checkpoints. Any retained epoch restores in roughly
// constant time, so a developer can rewind a misbehaving application to the
// moment before the bug — and extract an ELF coredump of any point — without
// having arranged anything in advance.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"os"
	"time"

	"aurora"
	"aurora/internal/elfcore"
)

func main() {
	m, err := aurora.NewMachine(aurora.Defaults())
	if err != nil {
		log.Fatal(err)
	}

	// The application: a balance that should never go negative... but a
	// "bug" will zero it somewhere along the way.
	p := m.Spawn("ledger")
	va, _ := p.Mmap(1<<20, aurora.ProtRead|aurora.ProtWrite, false)
	g, err := m.Attach("ledger", p)
	if err != nil {
		log.Fatal(err)
	}
	g.RetainEpochs = 0 // keep the full execution history

	write := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		p.WriteMem(va, b[:])
	}
	read := func(proc *aurora.Proc) uint64 {
		var b [8]byte
		proc.ReadMem(va, b[:])
		return binary.LittleEndian.Uint64(b[:])
	}

	// Run with periodic checkpoints, recording the epoch timeline.
	type moment struct {
		step  int
		epoch aurora.Epoch
	}
	var timeline []moment
	balance := uint64(100)
	for step := 1; step <= 12; step++ {
		balance += 10
		if step == 9 {
			balance = 0 // the bug strikes
		}
		write(balance)
		m.Clock.Advance(time.Millisecond)
		st, err := g.Checkpoint(aurora.CkptIncremental)
		if err != nil {
			log.Fatal(err)
		}
		timeline = append(timeline, moment{step, st.Epoch})
	}
	fmt.Printf("ran 12 steps; final balance %d (corrupted at step 9)\n", read(p))
	fmt.Printf("history: %d restorable epochs\n", len(m.History()))

	// Bisect the history for the corruption.
	lo, hi := 0, len(timeline)-1
	for lo < hi {
		mid := (lo + hi) / 2
		gm, _, err := m.RestoreAt("ledger", timeline[mid].epoch)
		if err != nil {
			log.Fatal(err)
		}
		if read(gm.Procs()[0]) == 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	bad := timeline[lo]
	fmt.Printf("bisected: corruption first visible at step %d (epoch %d)\n", bad.step, bad.epoch)

	// Rewind to just before the bug and inspect.
	before := timeline[lo-1]
	gb, _, err := m.RestoreAt("ledger", before.epoch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rewound to step %d: balance %d (pre-bug state recovered)\n",
		before.step, read(gb.Procs()[0]))

	// Extract a coredump of the pre-bug state for offline debugging.
	f, err := os.CreateTemp("", "ledger-*.core")
	if err != nil {
		log.Fatal(err)
	}
	defer os.Remove(f.Name())
	n, err := elfcore.Write(f, gb.Procs()[0])
	if err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Printf("wrote pre-bug coredump: %s (%d bytes)\n", f.Name(), n)
}

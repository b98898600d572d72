package aurora_test

import (
	"fmt"

	"aurora"
)

// The canonical single-level-store flow: an application holds state only
// in memory, the machine crashes, and the application resumes from the
// last checkpoint.
func Example() {
	m, _ := aurora.NewMachine(aurora.Defaults())
	p := m.Spawn("app")
	va, _ := p.Mmap(1<<20, aurora.ProtRead|aurora.ProtWrite, false)
	g, _ := m.Attach("app", p)

	p.WriteMem(va, []byte("no save files"))
	g.Checkpoint(aurora.CkptIncremental)

	m2, _ := m.Crash()
	g2, _, _ := m2.Restore("app")
	buf := make([]byte, 13)
	g2.Procs()[0].ReadMem(va, buf)
	fmt.Println(string(buf))
	// Output: no save files
}

// Time travel: any retained checkpoint restores.
func ExampleMachine_RestoreAt() {
	m, _ := aurora.NewMachine(aurora.Defaults())
	p := m.Spawn("app")
	va, _ := p.Mmap(1<<20, aurora.ProtRead|aurora.ProtWrite, false)
	g, _ := m.Attach("app", p)

	p.WriteMem(va, []byte{1})
	st, _ := g.Checkpoint(aurora.CkptIncremental)
	p.WriteMem(va, []byte{2})
	g.Checkpoint(aurora.CkptIncremental)

	g2, _, _ := m.RestoreAt("app", st.Epoch)
	buf := make([]byte, 1)
	g2.Procs()[0].ReadMem(va, buf)
	fmt.Println(buf[0])
	// Output: 1
}

// Migration: an application moves between machines mid-flight.
func ExampleMachine_MigrateTo() {
	cfg := aurora.Defaults()
	cfg.Telemetry = true // a.Tracer counts the rounds
	a, _ := aurora.NewMachine(cfg)
	b, _ := aurora.NewMachine(aurora.Defaults())
	p := a.Spawn("svc")
	va, _ := p.Mmap(1<<20, aurora.ProtRead|aurora.ProtWrite, false)
	a.Attach("svc", p)
	p.WriteMem(va, []byte("travels"))

	// Each round is one replica sync: the full image, one pre-copy delta,
	// and the final stop-and-copy.
	g, _, _ := a.MigrateTo(b, "svc", 1, nil)
	buf := make([]byte, 7)
	g.Procs()[0].ReadMem(va, buf)
	fmt.Println(string(buf), a.Tracer.CounterValue("sls.replica.syncs"), "rounds")
	// Output: travels 3 rounds
}

// The Aurora API journal: synchronous durability between checkpoints.
func ExampleGroup_Journal() {
	m, _ := aurora.NewMachine(aurora.Defaults())
	p := m.Spawn("db")
	g, _ := m.Attach("db", p)

	j, _ := g.Journal("wal", 1<<20)
	seq, _ := j.Append([]byte("put k v"))
	fmt.Println("committed record", seq)
	// Output: committed record 1
}

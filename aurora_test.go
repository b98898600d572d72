package aurora

import (
	"testing"
	"time"
)

func TestMachineLifecycle(t *testing.T) {
	m, err := NewMachine(Defaults())
	if err != nil {
		t.Fatal(err)
	}
	p := m.Spawn("app")
	g, err := m.Attach("app", p)
	if err != nil {
		t.Fatal(err)
	}
	va, err := p.Mmap(1<<20, ProtRead|ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteMem(va, []byte("facade state")); err != nil {
		t.Fatal(err)
	}
	st, err := m.Checkpoint("app")
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch == 0 || st.StopTime <= 0 {
		t.Fatalf("stats: %+v", st)
	}
	_ = g

	m2, err := m.Crash()
	if err != nil {
		t.Fatal(err)
	}
	g2, rst, err := m2.Restore("app")
	if err != nil {
		t.Fatal(err)
	}
	if rst.Procs != 1 {
		t.Fatalf("restored procs = %d", rst.Procs)
	}
	got := make([]byte, 12)
	if err := g2.Procs()[0].ReadMem(va, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "facade state" {
		t.Fatalf("memory = %q", got)
	}
	// Timeline continued across the crash.
	if m2.Now() < st.DurableAt {
		t.Fatalf("timeline reset: now=%v, checkpoint durable at %v", m2.Now(), st.DurableAt)
	}
}

func TestTimeTravelRestore(t *testing.T) {
	m, err := NewMachine(Defaults())
	if err != nil {
		t.Fatal(err)
	}
	p := m.Spawn("app")
	if _, err := m.Attach("app", p); err != nil {
		t.Fatal(err)
	}
	va, _ := p.Mmap(1<<20, ProtRead|ProtWrite, false)
	p.WriteMem(va, []byte("one"))
	st1, err := m.Checkpoint("app")
	if err != nil {
		t.Fatal(err)
	}
	p.WriteMem(va, []byte("two"))
	if _, err := m.Checkpoint("app"); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range m.History() {
		if e == st1.Epoch {
			found = true
		}
	}
	if !found {
		t.Fatalf("epoch %d missing from history %v", st1.Epoch, m.History())
	}
	g, _, err := m.RestoreAt("app", st1.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3)
	g.Procs()[0].ReadMem(va, got)
	if string(got) != "one" {
		t.Fatalf("time travel got %q, want \"one\"", got)
	}
}

func TestRunPeriodic(t *testing.T) {
	m, err := NewMachine(Defaults())
	if err != nil {
		t.Fatal(err)
	}
	p := m.Spawn("app")
	g, err := m.Attach("app", p)
	if err != nil {
		t.Fatal(err)
	}
	g.Period = 5 * time.Millisecond
	va, _ := p.Mmap(1<<20, ProtRead|ProtWrite, false)
	i := 0
	err = m.RunPeriodic("app", 40*time.Millisecond, func() error {
		i++
		m.Clock.Advance(100 * time.Microsecond) // app work
		return p.WriteMem(va, []byte{byte(i)})
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Checkpoints() < 5 {
		t.Fatalf("periodic checkpoints = %d over 40ms at 5ms period", g.Checkpoints())
	}
}

func TestRestoreLazyFacade(t *testing.T) {
	m, _ := NewMachine(Defaults())
	p := m.Spawn("app")
	m.Attach("app", p)
	va, _ := p.Mmap(4<<20, ProtRead|ProtWrite, false)
	p.WriteMem(va+5*PageSize, []byte("lazy"))
	m.Checkpoint("app")
	m2, _ := m.Crash()
	g, rst, err := m2.RestoreLazily("app")
	if err != nil {
		t.Fatal(err)
	}
	if rst.PagesEager != 0 {
		t.Fatalf("lazy restore loaded %d pages", rst.PagesEager)
	}
	got := make([]byte, 4)
	g.Procs()[0].ReadMem(va+5*PageSize, got)
	if string(got) != "lazy" {
		t.Fatalf("lazy page = %q", got)
	}
}

func TestUnknownGroupErrors(t *testing.T) {
	m, _ := NewMachine(Defaults())
	if _, err := m.Checkpoint("nope"); err == nil {
		t.Fatal("checkpoint of unknown group succeeded")
	}
	if _, _, err := m.Restore("nope"); err == nil {
		t.Fatal("restore of unknown group succeeded")
	}
	if err := m.RunPeriodic("nope", time.Millisecond, func() error { return nil }); err == nil {
		t.Fatal("RunPeriodic of unknown group succeeded")
	}
}

// TestCrashTraceDecomposesTTFO: on a traced machine, time-to-first-op from
// a crash decomposes inside one trace — the objstore "recover" span covers
// the reboot's store recovery exactly, and the sls "restore" span starts no
// earlier than it ends.
func TestCrashTraceDecomposesTTFO(t *testing.T) {
	cfg := Defaults()
	cfg.Trace = true
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := m.Spawn("app")
	g, err := m.Attach("app", p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Mmap(1<<20, ProtRead|ProtWrite, false); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Checkpoint("app"); err != nil {
		t.Fatal(err)
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}
	before := len(m.Tracer.Events())
	t0 := m.Now()
	m2, err := m.Crash()
	if err != nil {
		t.Fatal(err)
	}
	t1 := m2.Now()
	if _, _, err := m2.RestoreSpeculatively("app"); err != nil {
		t.Fatal(err)
	}
	var recoverEnd, restoreStart time.Duration = -1, -1
	for _, e := range m2.Tracer.Events()[before:] {
		switch {
		case e.Name == "recover" && e.Start == t0 && e.Start+e.Dur == t1:
			recoverEnd = e.Start + e.Dur
		case e.Name == "restore" && restoreStart < 0:
			restoreStart = e.Start
		}
	}
	if recoverEnd < 0 || t1 == t0 {
		t.Fatalf("no recover span covering the reboot [%v,%v]", t0, t1)
	}
	if restoreStart < recoverEnd {
		t.Fatalf("restore span starts at %v, recover ends at %v", restoreStart, recoverEnd)
	}
}

package aurora

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"aurora/internal/clock"
)

func TestFacadeSuspendResume(t *testing.T) {
	m, _ := NewMachine(Defaults())
	p := m.Spawn("app")
	m.Attach("app", p)
	va, _ := p.Mmap(1<<20, ProtRead|ProtWrite, false)
	p.WriteMem(va, []byte("idle"))
	if err := m.Suspend("app"); err != nil {
		t.Fatal(err)
	}
	if !p.Exited() {
		t.Fatal("process alive after suspend")
	}
	g, _, err := m.Restore("app")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	g.Procs()[0].ReadMem(va, got)
	if string(got) != "idle" {
		t.Fatalf("resumed state %q", got)
	}
	if err := m.Suspend("nope"); err == nil {
		t.Fatal("suspend of unknown group succeeded")
	}
}

func TestFacadeMigrateTo(t *testing.T) {
	a, _ := NewMachine(Defaults())
	b, _ := NewMachine(Defaults())
	p := a.Spawn("svc")
	a.Attach("svc", p)
	va, _ := p.Mmap(1<<20, ProtRead|ProtWrite, false)
	p.WriteMem(va, []byte("v0"))

	rounds := 0
	g, st, err := a.MigrateTo(b, "svc", 2, func() error {
		rounds++
		return p.WriteMem(va, []byte{'v', byte('0' + rounds)})
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 4 || len(st.RoundBytes) != 4 {
		t.Fatalf("stats %+v", st)
	}
	got := make([]byte, 2)
	g.Procs()[0].ReadMem(va, got)
	if string(got) != "v2" {
		t.Fatalf("migrated state %q, want v2", got)
	}
	// Destination can keep checkpointing it.
	if _, err := b.Checkpoint("svc"); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeReplicateTo(t *testing.T) {
	a, _ := NewMachine(Defaults())
	b, _ := NewMachine(Defaults())
	p := a.Spawn("db")
	a.Attach("db", p)
	va, _ := p.Mmap(1<<20, ProtRead|ProtWrite, false)
	p.WriteMem(va, []byte("r0"))
	rep, err := a.ReplicateTo(b, "db")
	if err != nil {
		t.Fatal(err)
	}
	p.WriteMem(va, []byte("r1"))
	if err := rep.Sync(); err != nil {
		t.Fatal(err)
	}
	g, _, err := rep.Failover(RestoreEager)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2)
	g.Procs()[0].ReadMem(va, got)
	if string(got) != "r1" {
		t.Fatalf("failover state %q", got)
	}
	if _, err := a.ReplicateTo(b, "missing"); err == nil {
		t.Fatal("replicate of unknown group succeeded")
	}
}

func TestImageBootRoundTrip(t *testing.T) {
	m, _ := NewMachine(Config{StorageBytes: 1 << 30})
	p := m.Spawn("app")
	m.Attach("app", p)
	va, _ := p.Mmap(1<<20, ProtRead|ProtWrite, false)
	p.WriteMem(va, []byte("imaged"))
	if _, err := m.Checkpoint("app"); err != nil {
		t.Fatal(err)
	}
	g, _ := m.Group("app")
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}

	var img bytes.Buffer
	if err := m.SaveImage(&img); err != nil {
		t.Fatal(err)
	}
	m2, err := BootImage(&img, Config{})
	if err != nil {
		t.Fatal(err)
	}
	names, err := m2.PersistedGroups()
	if err != nil || len(names) != 1 || names[0] != "app" {
		t.Fatalf("groups = %v err=%v", names, err)
	}
	g2, _, err := m2.Restore("app")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 6)
	g2.Procs()[0].ReadMem(va, got)
	if string(got) != "imaged" {
		t.Fatalf("booted state %q", got)
	}
}

// TestMigrationPinned pins a direct-path two-round migration between two
// machines on ONE shared clock: the destination's disk image, the round count,
// the final stop and the clock's last reading were taken from the code that
// shipped rounds through a private closure in MigrateVia, before migration was
// rebuilt on Replica. (On private clocks each stream's arrival legitimately
// moves the destination's flight timestamps, so the shared clock is the case
// that must not move.) The group carries a journal, so the image and the
// clock were re-pinned when rounds began shipping only its new frames, written
// once at their offsets; the round count and the final stop did not move.
func TestMigrationPinned(t *testing.T) {
	cfg := Defaults()
	cfg.StorageBytes = 64 << 20
	cfg.Clock = clock.NewVirtual()
	a, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := a.Spawn("svc")
	g, err := a.Attach("svc", p)
	if err != nil {
		t.Fatal(err)
	}
	g.Options.FlushWorkers = 1
	va, _ := p.Mmap(256*PageSize, ProtRead|ProtWrite, false)
	for i := 0; i < 256; i++ {
		if err := p.WriteMem(va+uint64(i)*PageSize, []byte{byte(i), 0xA5}); err != nil {
			t.Fatal(err)
		}
	}
	j, err := g.Journal("wal", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	round := 0
	g2, st, err := a.MigrateTo(b, "svc", 2, func() error {
		round++
		if _, err := j.Append([]byte{byte(round)}); err != nil {
			return err
		}
		for i := 0; i < 8; i++ {
			if err := p.WriteMem(va+uint64(i*round)*PageSize, []byte{byte(0x40 + round)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1)
	if g2.Procs()[0].ReadMem(va+PageSize, got); got[0] != 0x41 {
		t.Fatalf("migrated page 1 = %#x, want 0x41", got[0])
	}
	h := sha256.New()
	if err := b.SaveImage(h); err != nil {
		t.Fatal(err)
	}
	const (
		wantSHA   = "8b7aa8d0bd7ebe86287bc4ed1b62a589b0136a994b89d123c7eee79a59f5b7ff"
		wantStop  = time.Duration(184369)
		wantClock = time.Duration(3615344)
	)
	if sum := hex.EncodeToString(h.Sum(nil)); sum != wantSHA || st.Rounds != 4 || st.FinalStop != wantStop || cfg.Clock.Now() != wantClock {
		t.Fatalf("migration moved: image %s rounds %d final stop %d clock %d; want %s 4 %d %d",
			sum, st.Rounds, st.FinalStop, cfg.Clock.Now(), wantSHA, wantStop, wantClock)
	}
}

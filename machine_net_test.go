package aurora

import (
	"errors"
	"testing"
	"time"

	"aurora/internal/flight"
	"aurora/internal/net"
)

func TestFacadeReplicateOverLossyNet(t *testing.T) {
	a, _ := NewMachine(Defaults())
	a.Net = &NetConfig{
		Fwd: NetPlan{Seed: 7, DropProb: 0.1, DupProb: 0.05, CorruptProb: 0.05},
		Rev: NetPlan{Seed: 8, DropProb: 0.1},
	}
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
	if rep.WireBytes == 0 {
		t.Fatal("lossy-net replication accrued no wire bytes")
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
	// The wire description is the machine's, and a reboot keeps it.
	a2, err := a.Crash()
	if err != nil {
		t.Fatal(err)
	}
	if a2.Net != a.Net {
		t.Fatalf("rebooted primary: Net %p, want %p", a2.Net, a.Net)
	}
}

func TestFacadeMigrateOverNet(t *testing.T) {
	cfg := Defaults()
	cfg.Telemetry = true
	a, _ := NewMachine(cfg)
	a.Net = &NetConfig{Fwd: NetPlan{Seed: 3, DropProb: 0.05}}
	b, _ := NewMachine(Defaults())
	p := a.Spawn("svc")
	a.Attach("svc", p)
	va, _ := p.Mmap(1<<20, ProtRead|ProtWrite, false)
	p.WriteMem(va, []byte("v0"))

	rounds := 0
	g, _, err := a.MigrateTo(b, "svc", 2, func() error {
		rounds++
		return p.WriteMem(va, []byte{'v', byte('0' + rounds)})
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2)
	g.Procs()[0].ReadMem(va, got)
	if string(got) != "v2" {
		t.Fatalf("migrated state %q, want v2", got)
	}
	// A migration round is a replica sync: it leaves the same forensic mark
	// and counts in the same metric. Two delta rounds sit between the full
	// image and the final stop-and-copy.
	if ships, syncs := flightEvents(a, flight.EvReplShip), a.Tracer.CounterValue("sls.replica.syncs"); ships != 4 || syncs != 4 {
		t.Fatalf("4 rounds left %d repl.ship flight events and sls.replica.syncs = %d", ships, syncs)
	}
}

// flightEvents counts the events of one kind in m's flight ring.
func flightEvents(m *Machine, kind flight.Kind) int {
	n := 0
	for _, ev := range m.Flight.Events() {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

func TestFacadeReplicationResume(t *testing.T) {
	a, _ := NewMachine(Defaults())
	b, _ := NewMachine(Defaults())
	p := a.Spawn("db")
	a.Attach("db", p)
	va, _ := p.Mmap(1<<20, ProtRead|ProtWrite, false)
	p.WriteMem(va, []byte("r0"))

	// Build the connection explicitly so the test can cut the wire.
	conn := a.NewConn(&NetConfig{})
	g, _ := a.Group("db")
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	rep, err := g.ReplicateToVia(b.SLS, conn)
	if err != nil {
		t.Fatal(err)
	}
	p.WriteMem(va, []byte("r1"))
	conn.Pipe().Cut(time.Hour)
	err = rep.Sync()
	if !errors.Is(err, net.ErrRetriesExhausted) {
		t.Fatalf("sync over cut wire: %v", err)
	}
	if !rep.Pending() {
		t.Fatal("nothing pending after cut sync")
	}
	a.Clock.Advance(2 * time.Hour)
	if err := rep.Resume(); err != nil {
		t.Fatal(err)
	}
	gg, _, err := rep.Failover(RestoreEager)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2)
	gg.Procs()[0].ReadMem(va, got)
	if string(got) != "r1" {
		t.Fatalf("failover state %q", got)
	}
}

package sls

import (
	"errors"
	"testing"
	"time"

	"aurora/internal/net"
	"aurora/internal/vm"
)

func TestPreCopyLiveMigration(t *testing.T) {
	src := newWorld(t)
	p := src.k.NewProc("server")
	g := src.o.CreateGroup("server")
	g.Attach(p)
	va, _ := p.Mmap(8<<20, vm.ProtRead|vm.ProtWrite, false)
	// A sizable base image.
	for i := 0; i < 1024; i++ {
		p.WriteMem(va+uint64(i)*vm.PageSize, []byte{byte(i)})
	}

	dst := newWorld(t)
	round := 0
	restored, st, err := g.MigrateVia(dst.o, 2, func() error {
		// The app keeps running between rounds, dirtying a few pages.
		round++
		for i := 0; i < 4; i++ {
			if err := p.WriteMem(va+uint64(i)*vm.PageSize, []byte{byte(100 + round)}); err != nil {
				return err
			}
		}
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 4 { // full + 2 pre-copy + final
		t.Fatalf("rounds = %d, want 4", st.Rounds)
	}
	// Pre-copy property: delta rounds are far smaller than the full round.
	if !(st.RoundBytes[1] < st.RoundBytes[0]/10) {
		t.Fatalf("delta round %d bytes not << full round %d", st.RoundBytes[1], st.RoundBytes[0])
	}
	// The final (stop-and-copy) round is small: little residual dirt.
	last := st.RoundBytes[len(st.RoundBytes)-1]
	if !(last < st.RoundBytes[0]/10) {
		t.Fatalf("final round %d bytes not << full round %d", last, st.RoundBytes[0])
	}
	if st.FinalStop <= 0 {
		t.Fatal("no final stop time")
	}

	// The application runs on dst with the LAST round's state.
	rp := restored.Procs()[0]
	b := make([]byte, 1)
	rp.ReadMem(va, b)
	if b[0] != byte(100+round) {
		t.Fatalf("migrated page 0 = %d, want %d", b[0], 100+round)
	}
	rp.ReadMem(va+900*vm.PageSize, b)
	if b[0] != byte(900%256) {
		t.Fatalf("migrated page 900 = %d", b[0])
	}
	// The source is gone.
	if len(g.o.K.Procs(g.ID)) != 0 {
		for _, sp := range g.o.K.Procs(g.ID) {
			if !sp.Exited() {
				t.Fatal("source process still running after migration")
			}
		}
	}
	if _, ok := src.o.GroupByName("server"); ok {
		t.Fatal("source orchestrator still lists the migrated group")
	}
}

func TestSuspendResume(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	g.Attach(p)
	va, _ := p.Mmap(1<<20, vm.ProtRead|vm.ProtWrite, false)
	p.WriteMem(va, []byte("suspended"))

	if err := g.Suspend(); err != nil {
		t.Fatal(err)
	}
	if !p.Exited() {
		t.Fatal("process still running after suspend")
	}
	if _, ok := w.o.GroupByName("app"); ok {
		t.Fatal("suspended group still live")
	}

	// Resume in the same machine session.
	g2, _, err := w.o.RestoreGroup("app", w.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 9)
	g2.Procs()[0].ReadMem(va, got)
	if string(got) != "suspended" {
		t.Fatalf("after resume: %q", got)
	}

	// Suspension also survives a crash: another group checkpointing must
	// not drop the suspended app from the manifest.
	other := w.k.NewProc("other")
	og := w.o.CreateGroup("other")
	og.Attach(other)
	og.Checkpoint(CkptIncremental)
	names, err := ManifestGroups(w.store)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range names {
		if n == "app" {
			found = true
		}
	}
	if !found {
		t.Fatalf("suspended group missing from manifest: %v", names)
	}
}

// TestMigrateRoundCutMidTransfer: the wire dies after the first frames of a
// round are acked, so the receiver holds an open session with buffered
// frames when the round gives up. The failed migration must drop it — a
// retry ships under new epoch keys, and nothing would ever collect the old
// session — leave the source running, and succeed when retried on the same
// connection. (TestMigrateToDeadMachine partitions from time zero: no Hello
// gets through, so no session ever opens.)
func TestMigrateRoundCutMidTransfer(t *testing.T) {
	src, err := newWorldE()
	if err != nil {
		t.Fatal(err)
	}
	dst, err := newWorldE()
	if err != nil {
		t.Fatal(err)
	}
	app, err := startReplApp(src)
	if err != nil {
		t.Fatal(err)
	}
	for pg := int64(0); pg < workloadPages; pg++ {
		if err := app.write(pg, byte(1+pg)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := replConfig()
	cfg.MaxRetries = 3
	// Transmission 0 is the Hello; the cable is pulled on the sixth.
	conn := net.NewConn(net.NewPipe(src.clk, net.DefaultParams(),
		net.Plan{PartitionXmit: 6, PartitionDur: time.Hour}, net.Plan{}), src.clk, cfg, nil)
	work := func() error { return app.write(1, 0x77) }

	if _, _, err := app.g.MigrateVia(dst.o, 1, work, conn); !errors.Is(err, net.ErrRetriesExhausted) {
		t.Fatalf("migrate over a wire cut mid-round: err = %v, want retries exhausted", err)
	}
	cut := uint64(app.g.Epoch())
	if next, total, ok := conn.SessionProgress(cut); ok {
		t.Fatalf("failed migration left the receiver's session for epoch %d behind (%d/%d frames buffered)", cut, next, total)
	}
	if err := app.write(2, 0x99); err != nil {
		t.Fatal(err)
	}
	if _, err := app.g.Checkpoint(CkptIncremental); err != nil {
		t.Fatalf("source group not checkpointable after the failed migration: %v", err)
	}

	src.clk.Advance(2 * time.Hour)
	g2, st, err := app.g.MigrateVia(dst.o, 1, work, conn)
	if err != nil {
		t.Fatalf("retry on the same connection: %v", err)
	}
	if st.Rounds != 3 {
		t.Fatalf("retry rounds = %d, want 3", st.Rounds)
	}
	img := make([]byte, workloadPages*vm.PageSize)
	if err := g2.Procs()[0].ReadMem(app.va, img); err != nil {
		t.Fatal(err)
	}
	if err := (&replImage{mem: img, jour: app.jour}).checkModel(app.model, app.jour); err != nil {
		t.Fatalf("migrated image: %v", err)
	}
}

// TestMigratePrivateClockDestination is the migration twin of the
// private-clock case of TestStandbyTrimsInsideCommit: a destination on a
// clock of its own is moved up to each round's arrival, so its device queue
// has drained when the group is restored there and the switchover pays for
// the restore alone, however many rounds came before.
func TestMigratePrivateClockDestination(t *testing.T) {
	const pages, perRound = 1024, 64
	switchover := func(rounds int) time.Duration {
		src, dst := newWorld(t), newWorld(t)
		p := src.k.NewProc("db")
		g := src.o.CreateGroup("db")
		g.Attach(p)
		va, _ := p.Mmap(pages*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
		for i := 0; i < pages; i++ {
			p.WriteMem(va+uint64(i*vm.PageSize), []byte{byte(i)})
		}
		round, seen := 0, dst.clk.Now()
		_, _, err := g.MigrateVia(dst.o, rounds, func() error {
			if now := dst.clk.Now(); now <= seen {
				t.Fatalf("round %d did not move the destination's clock (still %v)", round, now)
			} else {
				seen = now
			}
			round++
			for i := 0; i < perRound; i++ {
				p.WriteMem(va+uint64(i*vm.PageSize)+8, []byte{byte(round), byte(round >> 8)})
			}
			return nil
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		// The source's clock stopped at the last ship; what the destination
		// ran past it is the last stream's apply plus the restore.
		return dst.clk.Now() - src.clk.Now()
	}
	if few, many := switchover(10), switchover(100); many != few {
		t.Fatalf("switchover after 100 rounds costs %v, after 10 %v: the destination is paying for its history", many, few)
	}
}

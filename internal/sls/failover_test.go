package sls

// Failover correctness edges: the bugfix sweep behind the fleet work. A
// coordinator promotes standbys programmatically, with no operator in the
// loop to notice a half-shipped delta or a dying standby — so these paths
// must be airtight: failover mid-ship restores strictly the last committed
// base and retires the pending session, a standby dying mid-restore leaves
// no wedged group behind, a second failover is a clean error, and migrating
// into a dead machine leaves the source group fully alive.

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"testing"
	"time"

	"aurora/internal/net"
	"aurora/internal/objstore"
	"aurora/internal/rec"
	"aurora/internal/vm"
)

// TestFailoverMidShipRestoresCommittedBase is the regression test for the
// Replica.Failover pending-ship bug: fail over while a ship is stuck
// mid-transfer on a lossy wire. The standby must come up at the last
// COMMITTED epoch, the pending session must be dead on both ends, and no
// later Sync/Resume may land the dead primary's delta on the promoted
// standby.
func TestFailoverMidShipRestoresCommittedBase(t *testing.T) {
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
	conn := net.NewConn(net.NewPipe(src.clk, net.DefaultParams(), net.Plan{}, net.Plan{}),
		src.clk, replConfig(), nil)

	for pg := int64(0); pg < workloadPages; pg++ {
		if err := app.write(pg, byte(1+pg)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := app.g.ReplicateToVia(dst.o, conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.write(3, 0xAA); err != nil {
		t.Fatal(err)
	}
	if err := app.append([]byte("committed")); err != nil {
		t.Fatal(err)
	}
	if err := rep.Sync(); err != nil {
		t.Fatal(err)
	}

	// Snapshot the model at the committed base: this is everything the
	// standby is allowed to know.
	committedModel := make(map[int64]byte, len(app.model))
	for k, v := range app.model {
		committedModel[k] = v
	}
	committedJour := append([][]byte(nil), app.jour...)
	committedBase := rep.Base()

	// Dirty more state, then cut the wire so the ship dies mid-transfer.
	if err := app.write(3, 0xBB); err != nil {
		t.Fatal(err)
	}
	if err := app.write(9, 0xCC); err != nil {
		t.Fatal(err)
	}
	if err := app.append([]byte("never-shipped")); err != nil {
		t.Fatal(err)
	}
	conn.Pipe().Cut(time.Hour)
	err = rep.Sync()
	if !errors.Is(err, net.ErrRetriesExhausted) {
		t.Fatalf("sync over cut wire: err = %v, want retries exhausted", err)
	}
	if !rep.Pending() {
		t.Fatal("failed sync left nothing pending")
	}
	pendingEpoch := uint64(app.g.Epoch())

	// Heal the wire BEFORE failing over: the hazard is precisely that a
	// healed wire lets the pending transfer complete later.
	src.clk.Advance(2 * time.Hour)

	g2, _, err := rep.Failover(RestoreFull)
	if err != nil {
		t.Fatalf("failover with pending ship: %v", err)
	}
	if rep.Pending() {
		t.Fatal("failover kept the pending ship")
	}
	if !rep.FailedOver() {
		t.Fatal("failover did not retire the replica")
	}
	if rep.Base() != committedBase {
		t.Fatalf("failover moved the base: %d, committed was %d", rep.Base(), committedBase)
	}
	if _, _, ok := conn.SessionProgress(pendingEpoch); ok {
		t.Fatalf("receiver still holds a session for pending epoch %d", pendingEpoch)
	}

	readImage := func(g *Group) *replImage {
		t.Helper()
		img := &replImage{mem: make([]byte, workloadPages*vm.PageSize)}
		if err := g.Procs()[0].ReadMem(app.va, img.mem); err != nil {
			t.Fatal(err)
		}
		j, err := g.OpenJournal("wal")
		if err != nil {
			t.Fatal(err)
		}
		ents, err := j.Entries()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			img.jour = append(img.jour, append([]byte(nil), e.Payload...))
		}
		return img
	}
	img := readImage(g2)
	if err := img.checkModel(committedModel, committedJour); err != nil {
		t.Fatalf("promoted standby is not the committed base: %v", err)
	}
	if img.mem[3*vm.PageSize] != 0xAA {
		t.Fatalf("page 3 = %#x, want committed 0xAA (0xBB would be the uncommitted delta)", img.mem[3*vm.PageSize])
	}

	// The replica is retired: every later operation is a clean error and
	// the promoted standby's state does not move.
	if err := rep.Resume(); !errors.Is(err, ErrFailedOver) {
		t.Fatalf("resume after failover: err = %v, want ErrFailedOver", err)
	}
	if err := rep.Sync(); !errors.Is(err, ErrFailedOver) {
		t.Fatalf("sync after failover: err = %v, want ErrFailedOver", err)
	}
	if _, _, err := rep.Failover(RestoreFull); !errors.Is(err, ErrFailedOver) {
		t.Fatalf("double failover: err = %v, want ErrFailedOver", err)
	}
	if after := readImage(g2); after.mem[3*vm.PageSize] != 0xAA {
		t.Fatalf("post-failover operations moved standby state: page 3 = %#x", after.mem[3*vm.PageSize])
	}
}

// TestDoubleFailoverCleanError: promoting the same standby twice must fail
// cleanly — a second RestoreGroup would stack a duplicate live group under
// the same name.
func TestDoubleFailoverCleanError(t *testing.T) {
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
	if err := app.write(0, 0x11); err != nil {
		t.Fatal(err)
	}
	rep, err := app.g.ReplicateTo(dst.o)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rep.Failover(RestoreFull); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rep.Failover(RestoreFull); !errors.Is(err, ErrFailedOver) {
		t.Fatalf("double failover: err = %v, want ErrFailedOver", err)
	}
	// Exactly one live group of that name on the standby.
	live := 0
	for _, g := range dst.o.Groups() {
		if g.Name == "app" {
			live++
		}
	}
	if live != 1 {
		t.Fatalf("standby has %d live groups named app, want 1", live)
	}
}

// failingSource wraps a restore Source and dies after a fixed number of
// record reads — the standby's own device going away mid-restore.
type failingSource struct {
	Source
	after int
	reads int
}

var errSourceDied = errors.New("standby device died mid-restore")

func (f *failingSource) GetRecord(oid objstore.OID) ([]byte, error) {
	f.reads++
	if f.reads > f.after {
		return nil, errSourceDied
	}
	return f.Source.GetRecord(oid)
}

// TestFailoverStandbyDiesMidRestore: a restore that dies partway must not
// wedge the group name — the half-built group is torn down, and a retry
// against the healthy store succeeds with full fidelity.
func TestFailoverStandbyDiesMidRestore(t *testing.T) {
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
	if err := app.append([]byte("entry-a")); err != nil {
		t.Fatal(err)
	}
	if _, err := app.g.ReplicateTo(dst.o); err != nil {
		t.Fatal(err)
	}

	// Die at every record-read depth the restore has: each index fails a
	// different stage (manifest walk, group record, proc, file, ...).
	for after := 1; ; after++ {
		fs := &failingSource{Source: dst.store, after: after}
		g, _, err := dst.o.RestoreGroup("app", fs, RestoreFull, true)
		if err == nil {
			// Deep enough that the whole restore went through: the sweep
			// is done. This last restore is live; drop it for the retry
			// check below.
			for _, p := range g.Procs() {
				p.Exit(0)
			}
			dst.o.Forget(g)
			if after == 1 {
				t.Fatal("failingSource never fired")
			}
			break
		}
		if !errors.Is(err, errSourceDied) {
			t.Fatalf("after=%d: err = %v, want the injected source death", after, err)
		}
		if g != nil {
			t.Fatalf("after=%d: failed restore returned a non-nil group", after)
		}
		if _, ok := dst.o.GroupByName("app"); ok {
			t.Fatalf("after=%d: failed restore left a wedged group registered", after)
		}
	}

	// The retry against the healthy store restores the full image.
	g2, _, err := dst.o.RestoreGroup("app", dst.store, RestoreFull, true)
	if err != nil {
		t.Fatalf("retry after mid-restore deaths: %v", err)
	}
	buf := make([]byte, 1)
	for pg := int64(0); pg < workloadPages; pg++ {
		if err := g2.Procs()[0].ReadMem(app.va+uint64(pg)*vm.PageSize, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(1+pg) {
			t.Fatalf("page %d = %#x after retry, want %#x", pg, buf[0], byte(1+pg))
		}
	}
}

// TestMigrateToDeadMachine: a migration whose wire is dead must return a
// clean error and leave the source group fully operational — checkpointing,
// writable, and still migratable once a live destination appears.
func TestMigrateToDeadMachine(t *testing.T) {
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
	for pg := int64(0); pg < 4; pg++ {
		if err := app.write(pg, byte(0x21+pg)); err != nil {
			t.Fatal(err)
		}
	}

	// The destination is dead: every transmission vanishes for an hour.
	cfg := net.Config{Window: 4, FrameData: 4 << 10, MaxRetries: 3}
	pipe := net.NewPipe(src.clk, net.DefaultParams(), net.Plan{}, net.Plan{})
	pipe.Fwd.AddPartition(time.Hour)
	conn := net.NewConn(pipe, src.clk, cfg, nil)
	work := func() error { return app.write(1, 0x77) }
	if _, _, err := app.g.MigrateVia(dst.o, 2, work, conn); !errors.Is(err, net.ErrRetriesExhausted) {
		t.Fatalf("migrate to dead machine: err = %v, want retries exhausted", err)
	}

	// The source group survived: still registered, writable, checkpointable.
	if _, ok := src.o.GroupByName("app"); !ok {
		t.Fatal("failed migrate unregistered the source group")
	}
	if len(app.g.Procs()) != 1 {
		t.Fatalf("failed migrate exited source procs: %d left", len(app.g.Procs()))
	}
	if err := app.write(2, 0x99); err != nil {
		t.Fatalf("source group not writable after failed migrate: %v", err)
	}
	if _, err := app.g.Checkpoint(CkptIncremental); err != nil {
		t.Fatalf("source group not checkpointable after failed migrate: %v", err)
	}

	// Once the partition lifts, the same group migrates cleanly.
	src.clk.Advance(2 * time.Hour)
	deltas := 0 // work runs before each delta round
	g2, _, err := app.g.MigrateVia(dst.o, 2, func() error { deltas++; return work() }, conn)
	if err != nil {
		t.Fatalf("migrate after heal: %v", err)
	}
	if deltas != 2 {
		t.Fatalf("healed migrate ran %d delta rounds, want 2", deltas)
	}
	buf := make([]byte, 1)
	if err := g2.Procs()[0].ReadMem(app.va+2*vm.PageSize, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x99 {
		t.Fatalf("migrated page 2 = %#x, want 0x99", buf[0])
	}
	if _, ok := src.o.GroupByName("app"); ok {
		t.Fatal("completed migrate left the group registered on the source")
	}
}

// flakyDev fails the next ordered submit — the superblock write — once
// armed: a commit whose metadata landed but whose commit point did not.
type flakyDev struct {
	objstore.BlockDev
	armed bool
}

var errCommitFailed = errors.New("standby commit write failed")

func (f *flakyDev) Submit(bufs [][]byte, off int64, after time.Duration) (time.Duration, error) {
	if f.armed && after > 0 {
		f.armed = false
		return 0, errCommitFailed
	}
	return f.BlockDev.Submit(bufs, off, after)
}

// TestRecvCommitFailureKeepsBase: a standby whose commit fails has applied
// a stream it did not commit, so it must keep holding the base it held
// before — advancing it refused every later delta forever ("needs base
// epoch N, receiver holds N+1"). Once the cause clears, the next Sync (over
// the wire: Resume, then Sync) must land and the standby must match.
func TestRecvCommitFailureKeepsBase(t *testing.T) {
	for _, wired := range []bool{false, true} {
		t.Run(fmt.Sprintf("wired=%v", wired), func(t *testing.T) {
			src, err := newWorldE()
			if err != nil {
				t.Fatal(err)
			}
			flaky := &flakyDev{}
			dst, err := newWorldOn(func(d objstore.BlockDev) objstore.BlockDev {
				flaky.BlockDev = d
				return flaky
			})
			if err != nil {
				t.Fatal(err)
			}

			app, err := startReplApp(src)
			if err != nil {
				t.Fatal(err)
			}
			var conn *net.Conn
			if wired {
				conn = net.NewConn(net.NewPipe(src.clk, net.DefaultParams(), net.Plan{}, net.Plan{}), src.clk, replConfig(), nil)
			}
			for pg := int64(0); pg < workloadPages; pg++ {
				if err := app.write(pg, byte(1+pg)); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := app.g.ReplicateToVia(dst.o, conn)
			if err != nil {
				t.Fatal(err)
			}
			base := rep.Base()

			// A region born in the interval whose commit fails and gone by
			// the retry: the standby must not keep its object.
			extra, err := app.p.Mmap(4*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := app.p.WriteMem(extra, []byte("short-lived")); err != nil {
				t.Fatal(err)
			}
			if err := app.write(3, 0xA1); err != nil {
				t.Fatal(err)
			}
			if err := app.append([]byte("before the failed commit")); err != nil {
				t.Fatal(err)
			}
			flaky.armed = true
			if err := rep.Sync(); !errors.Is(err, errCommitFailed) {
				t.Fatalf("sync over a failing standby commit: err = %v, want the injected failure", err)
			}
			if rep.Base() != base {
				t.Fatalf("replica base moved to %d on a failed sync, want %d", rep.Base(), base)
			}

			if err := app.p.Munmap(extra); err != nil {
				t.Fatal(err)
			}
			if err := app.write(5, 0xB2); err != nil {
				t.Fatal(err)
			}
			if err := app.append([]byte("after the failed commit")); err != nil {
				t.Fatal(err)
			}
			if err := rep.Resume(); err != nil {
				t.Fatalf("resume after the failure cleared: %v", err)
			}
			if err := rep.Sync(); err != nil {
				t.Fatalf("sync after the failure cleared: %v", err)
			}
			if rep.Base() <= base {
				t.Fatalf("replica base still %d after a landed sync", rep.Base())
			}

			want := map[objstore.OID]bool{}
			for _, oid := range src.store.Objects() {
				if ut, _ := src.store.UType(oid); ut == UTMemObject {
					want[oid] = true
				}
			}
			for _, oid := range dst.store.Objects() {
				if ut, _ := dst.store.UType(oid); ut == UTMemObject && !want[oid] {
					t.Errorf("standby kept memory object %d the primary no longer has", oid)
				}
			}
			if rep := dst.store.Fsck(); !rep.OK() {
				t.Fatalf("standby fsck: %v", rep.Problems)
			}
			img, err := failoverImage(rep, app.va)
			if err != nil {
				t.Fatal(err)
			}
			if err := img.checkModel(app.model, app.jour); err != nil {
				t.Fatalf("standby image after recovery from a failed commit: %v", err)
			}
		})
	}
}

// TestRefusedDeltaLeavesStandbyAtBase: a delta that rewrites every page and
// fails its check three quarters of the way in is refused whole, through
// either entry point. Nothing of it reaches the standby's store, so failover
// restores the base the standby held, not a cut that mixes the two epochs.
func TestRefusedDeltaLeavesStandbyAtBase(t *testing.T) {
	for _, entry := range []struct {
		name string
		recv func(*Orchestrator, []byte) (string, error)
	}{
		{"payload", func(o *Orchestrator, b []byte) (string, error) { return o.recvPayload(b) }},
		{"reader", func(o *Orchestrator, b []byte) (string, error) { return o.Recv(bytes.NewReader(b)) }},
	} {
		t.Run(entry.name, func(t *testing.T) {
			src, dst := newWorld(t), newWorld(t)
			app, err := startReplApp(src)
			if err != nil {
				t.Fatal(err)
			}
			for pg := int64(0); pg < workloadPages; pg++ {
				if err := app.write(pg, byte(1+pg)); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := app.g.ReplicateTo(dst.o)
			if err != nil {
				t.Fatal(err)
			}
			base := maps.Clone(app.model)

			for pg := int64(0); pg < workloadPages; pg++ {
				if err := app.write(pg, byte(0x80+pg)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := app.g.Checkpoint(CkptIncremental); err != nil {
				t.Fatal(err)
			}
			if err := app.g.Barrier(); err != nil {
				t.Fatal(err)
			}
			var e rec.Encoder
			if _, err := app.g.encodeStream(&e, rep.Base(), rep.marks); err != nil {
				t.Fatal(err)
			}
			delta := e.Raw()
			delta[len(delta)*3/4] ^= 0x20
			if _, err := entry.recv(dst.o, delta); !errors.Is(err, rec.ErrCorrupt) {
				t.Fatalf("a delta with a flipped byte: err = %v, want rec.ErrCorrupt", err)
			}
			if got := dst.o.recvState["app"].epoch; got != rep.Base() {
				t.Fatalf("the standby holds epoch %d after the refusal, want its base %d", got, rep.Base())
			}
			img, err := failoverImage(rep, app.va)
			if err != nil {
				t.Fatal(err)
			}
			if err := img.checkModel(base, app.jour); err != nil {
				t.Fatalf("failover after a refused delta: %v", err)
			}
		})
	}
}

package sls

// Replication over the simulated lossy network (internal/net): exhaustive
// per-transmission fault sweeps, resumable-sync scenarios, delta edge
// cases, and a seeded many-run property test — the wire-level counterpart
// of crashprop_test.go. Every failure message carries the plan/seed needed
// to replay it.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"aurora/internal/clock"
	"aurora/internal/device"
	"aurora/internal/kern"
	"aurora/internal/mem"
	"aurora/internal/net"
	"aurora/internal/objstore"
	"aurora/internal/slsfs"
	"aurora/internal/vm"
)

// newWorldE is newWorld without the testing.T — shared with fuzz targets,
// which construct worlds inside the fuzz function.
func newWorldE() (*world, error) { return newWorldOn(nil) }

// newWorldOn is newWorldE with the store's device passed through wrap (nil
// for none), so a test can interpose a failing BlockDev.
func newWorldOn(wrap func(objstore.BlockDev) objstore.BlockDev) (*world, error) {
	return newWorldSized(1<<30, wrap)
}

// newWorldSized is newWorldOn over a four-way stripe of size bytes in all.
func newWorldSized(size int64, wrap func(objstore.BlockDev) objstore.BlockDev) (*world, error) {
	clk := clock.NewVirtual()
	costs := clock.DefaultCosts()
	dev := device.NewStripe(clk, costs, 4, 64<<10, size/4)
	var bdev objstore.BlockDev = dev
	if wrap != nil {
		bdev = wrap(dev)
	}
	store, err := objstore.Format(bdev, clk, costs)
	if err != nil {
		return nil, err
	}
	fs, err := slsfs.Format(store, clk, costs)
	if err != nil {
		return nil, err
	}
	vmsys := vm.NewSystem(mem.New(0), clk, costs)
	k := kern.New(clk, costs, vmsys, fs)
	return &world{clk: clk, costs: costs, dev: dev, store: store, fs: fs, k: k, o: New(k, store)}, nil
}

// replApp is the reference replicated application: a few memory pages and
// a WAL journal.
type replApp struct {
	w     *world
	p     *kern.Proc
	g     *Group
	va    uint64
	j     *objstore.Journal
	model map[int64]byte
	jour  [][]byte
	rep   *Replica // set by runReplScenario once the seed has shipped
}

func startReplApp(w *world) (*replApp, error) {
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	g.Period = 0
	if err := g.Attach(p); err != nil {
		return nil, err
	}
	va, err := p.Mmap(workloadPages*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		return nil, err
	}
	j, err := g.Journal("wal", 1<<20)
	if err != nil {
		return nil, err
	}
	return &replApp{w: w, p: p, g: g, va: va, j: j, model: make(map[int64]byte)}, nil
}

func (a *replApp) write(page int64, val byte) error {
	if err := a.p.WriteMem(a.va+uint64(page)*vm.PageSize, []byte{val}); err != nil {
		return err
	}
	a.model[page] = val
	return nil
}

func (a *replApp) append(payload []byte) error {
	if _, err := a.j.Append(payload); err != nil {
		return err
	}
	a.jour = append(a.jour, append([]byte(nil), payload...))
	return nil
}

// replImage is the standby's restored application state, byte-compared
// across runs.
type replImage struct {
	mem  []byte
	jour [][]byte
}

// failoverImage restores the group on the standby and reads back the whole
// memory region and journal.
func failoverImage(rep *Replica, va uint64) (*replImage, error) {
	g2, _, err := rep.Failover(RestoreFull)
	if err != nil {
		return nil, fmt.Errorf("failover: %w", err)
	}
	procs := g2.Procs()
	if len(procs) != 1 {
		return nil, fmt.Errorf("failover restored %d procs", len(procs))
	}
	img := &replImage{mem: make([]byte, workloadPages*vm.PageSize)}
	if err := procs[0].ReadMem(va, img.mem); err != nil {
		return nil, fmt.Errorf("read standby memory: %w", err)
	}
	j, err := g2.OpenJournal("wal")
	if err != nil {
		return nil, fmt.Errorf("standby journal: %w", err)
	}
	ents, err := j.Entries()
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		img.jour = append(img.jour, append([]byte(nil), e.Payload...))
	}
	return img, nil
}

func (img *replImage) equal(other *replImage) error {
	if !bytes.Equal(img.mem, other.mem) {
		for i := range img.mem {
			if img.mem[i] != other.mem[i] {
				return fmt.Errorf("memory differs first at byte %d (page %d): %#x vs %#x",
					i, i/vm.PageSize, img.mem[i], other.mem[i])
			}
		}
	}
	if len(img.jour) != len(other.jour) {
		return fmt.Errorf("journal entry count %d vs %d", len(img.jour), len(other.jour))
	}
	for i := range img.jour {
		if !bytes.Equal(img.jour[i], other.jour[i]) {
			return fmt.Errorf("journal entry %d differs", i)
		}
	}
	return nil
}

// checkModel verifies the standby image against the primary's write model.
func (img *replImage) checkModel(model map[int64]byte, jour [][]byte) error {
	for pg, want := range model {
		if got := img.mem[pg*vm.PageSize]; got != want {
			return fmt.Errorf("page %d = %#x, model wants %#x", pg, got, want)
		}
	}
	if len(img.jour) != len(jour) {
		return fmt.Errorf("journal entry count %d, model has %d", len(img.jour), len(jour))
	}
	for i := range jour {
		if !bytes.Equal(img.jour[i], jour[i]) {
			return fmt.Errorf("journal entry %d differs from model", i)
		}
	}
	return nil
}

// replConfig is a small window/frame configuration so modest streams span
// many frames and the fault sweep gets a dense index space.
func replConfig() net.Config {
	return net.Config{Window: 4, FrameData: 4 << 10}
}

// runReplScenario drives the reference workload over a connection with the
// given fault plans: seed, two delta syncs with writes and appends between
// them, failover. Deterministic end to end for deterministic plans.
func runReplScenario(fwd, rev net.Plan, cfg net.Config) (*replImage, *net.Conn, *replApp, error) {
	src, err := newWorldE()
	if err != nil {
		return nil, nil, nil, err
	}
	dst, err := newWorldE()
	if err != nil {
		return nil, nil, nil, err
	}
	app, err := startReplApp(src)
	if err != nil {
		return nil, nil, nil, err
	}
	conn := net.NewConn(net.NewPipe(src.clk, net.DefaultParams(), fwd, rev), src.clk, cfg, nil)

	step := func(i int) error {
		if err := app.write(int64(i), byte(0x10+i)); err != nil {
			return err
		}
		if err := app.write(int64(i+7), byte(0x40+i)); err != nil {
			return err
		}
		return app.append([]byte(fmt.Sprintf("wal-entry-%d", i)))
	}
	// Populate every page so the seed transfer spans many frames — the
	// fault sweep enumerates wire transmissions, so a dense stream matters.
	for pg := int64(0); pg < workloadPages; pg++ {
		if err := app.write(pg, byte(1+pg)); err != nil {
			return nil, nil, nil, err
		}
	}
	if err := step(0); err != nil {
		return nil, nil, nil, err
	}
	rep, err := app.g.ReplicateToVia(dst.o, conn)
	if err != nil {
		return nil, conn, app, fmt.Errorf("seed: %w", err)
	}
	app.rep = rep
	for i := 1; i <= 2; i++ {
		if err := step(i); err != nil {
			return nil, conn, app, err
		}
		if err := rep.Sync(); err != nil {
			return nil, conn, app, fmt.Errorf("sync %d: %w", i, err)
		}
	}
	img, err := failoverImage(rep, app.va)
	return img, conn, app, err
}

func TestReplicateViaCleanNetwork(t *testing.T) {
	img, _, app, err := runReplScenario(net.Plan{}, net.Plan{}, replConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := img.checkModel(app.model, app.jour); err != nil {
		t.Fatal(err)
	}
	// The seed and two syncs: three transfers on a clean wire.
	if r := app.rep; r.Syncs != 3 || r.Retransmits != 0 || r.Backoffs != 0 || r.Resumes != 0 {
		t.Fatalf("clean run: %d syncs, %d retransmits, %d backoffs, %d resumes", r.Syncs, r.Retransmits, r.Backoffs, r.Resumes)
	}
	// Direct-path run must land on the identical standby image.
	direct, _, _, err := runReplScenario(net.Plan{}, net.Plan{}, replConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := img.equal(direct); err != nil {
		t.Fatalf("transport vs repeat run: %v", err)
	}
}

func TestReplicateDirectPathUnchanged(t *testing.T) {
	// The original nil-conn path still works and produces the same image
	// as the transport path.
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
	if err := app.write(0, 0x10); err != nil {
		t.Fatal(err)
	}
	if err := app.append([]byte("wal-entry-0")); err != nil {
		t.Fatal(err)
	}
	rep, err := app.g.ReplicateTo(dst.o)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.write(1, 0x11); err != nil {
		t.Fatal(err)
	}
	if err := rep.Sync(); err != nil {
		t.Fatal(err)
	}
	if rep.WireBytes != 0 || rep.Retransmits != 0 {
		t.Fatalf("direct path accrued wire stats: %+v", rep)
	}
	img, err := failoverImage(rep, app.va)
	if err != nil {
		t.Fatal(err)
	}
	if err := img.checkModel(app.model, app.jour); err != nil {
		t.Fatal(err)
	}
}

// TestReplicationFaultSweepExhaustive is the acceptance sweep: every
// forward-wire transmission index of the reference scenario crossed with
// every fault kind plus an index-triggered partition must converge — with
// bounded retries — to a standby image bit-identical to the clean run's.
func TestReplicationFaultSweepExhaustive(t *testing.T) {
	golden, conn, app, err := runReplScenario(net.Plan{}, net.Plan{}, replConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := golden.checkModel(app.model, app.jour); err != nil {
		t.Fatal(err)
	}
	xmits := conn.Pipe().Fwd.Xmits()
	if xmits < 10 {
		t.Fatalf("reference scenario used only %d transmissions", xmits)
	}

	stride := int64(1)
	if testing.Short() {
		stride = 5
	}
	kinds := []net.FaultKind{net.FaultDrop, net.FaultDup, net.FaultReorder, net.FaultCorrupt}
	runs := 0
	for idx := int64(0); idx < xmits; idx += stride {
		for _, kind := range kinds {
			plan := net.Plan{Faults: []net.Fault{{Xmit: idx, Kind: kind}}}
			img, _, _, err := runReplScenario(plan, net.Plan{}, replConfig())
			if err != nil {
				t.Fatalf("[fwd-xmit=%d kind=%v] %v", idx, kind, err)
			}
			if err := img.equal(golden); err != nil {
				t.Fatalf("[fwd-xmit=%d kind=%v] standby diverged: %v", idx, kind, err)
			}
			runs++
		}
		// Partition outlasting several RTOs: convergence must ride the
		// capped-backoff path, still without exhausting retries.
		plan := net.Plan{Faults: []net.Fault{{Xmit: idx, Kind: net.FaultPartition, For: 8 * time.Millisecond}}}
		img, _, app, err := runReplScenario(plan, net.Plan{}, replConfig())
		if err != nil {
			t.Fatalf("[fwd-xmit=%d kind=partition] %v", idx, err)
		}
		if err := img.equal(golden); err != nil {
			t.Fatalf("[fwd-xmit=%d kind=partition] standby diverged: %v", idx, err)
		}
		if app.rep.Backoffs == 0 {
			t.Fatalf("[fwd-xmit=%d kind=partition] no backoffs recorded", idx)
		}
		runs++
	}
	t.Logf("swept %d fault scenarios over %d wire transmissions", runs, xmits)
}

// TestReplicaResumeAfterCut kills the wire mid-sync for longer than the
// whole retry budget, verifies the sync fails cleanly with its progress
// retained, then heals the wire and confirms Resume re-ships only the
// missing tail and the standby converges bit-identically.
func TestReplicaResumeAfterCut(t *testing.T) {
	golden, _, _, err := runReplScenario(net.Plan{}, net.Plan{}, replConfig())
	if err != nil {
		t.Fatal(err)
	}

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
	conn := net.NewConn(net.NewPipe(src.clk, net.DefaultParams(), net.Plan{}, net.Plan{}), src.clk, replConfig(), nil)

	step := func(i int) {
		t.Helper()
		if err := app.write(int64(i), byte(0x10+i)); err != nil {
			t.Fatal(err)
		}
		if err := app.write(int64(i+7), byte(0x40+i)); err != nil {
			t.Fatal(err)
		}
		if err := app.append([]byte(fmt.Sprintf("wal-entry-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Same workload as runReplScenario so the goldens are comparable.
	for pg := int64(0); pg < workloadPages; pg++ {
		if err := app.write(pg, byte(1+pg)); err != nil {
			t.Fatal(err)
		}
	}
	step(0)
	rep, err := app.g.ReplicateToVia(dst.o, conn)
	if err != nil {
		t.Fatal(err)
	}
	step(1)
	if err := rep.Sync(); err != nil {
		t.Fatal(err)
	}

	// Cut the wire permanently (far longer than the backoff budget), then
	// sync: the checkpoint lands locally, the ship must give up.
	step(2)
	conn.Pipe().Cut(time.Hour)
	err = rep.Sync()
	if !errors.Is(err, net.ErrRetriesExhausted) {
		t.Fatalf("sync over cut wire: err = %v, want retries exhausted", err)
	}
	if !rep.Pending() {
		t.Fatal("failed sync left nothing pending")
	}
	syncsBefore := rep.Syncs

	// The standby may hold partial progress for the pending epoch.
	framesBefore := conn.Stats().FramesSent

	// Heal (virtual time passes the partition window) and resume.
	src.clk.Advance(2 * time.Hour)
	if err := rep.Resume(); err != nil {
		t.Fatalf("resume after heal: %v", err)
	}
	if rep.Pending() {
		t.Fatal("resume left the ship pending")
	}
	if rep.Syncs != syncsBefore+1 {
		t.Fatalf("syncs = %d, want %d", rep.Syncs, syncsBefore+1)
	}
	if rep.Resumes != 1 {
		t.Fatalf("replica resumes = %d, want 1", rep.Resumes)
	}
	_ = framesBefore

	img, err := failoverImage(rep, app.va)
	if err != nil {
		t.Fatal(err)
	}
	if err := img.equal(golden); err != nil {
		t.Fatalf("resumed standby diverged from clean golden: %v", err)
	}
}

// TestReplicaResumeShipsOnlyTail checks the epoch-granular resume claim
// frame by frame: a transfer cut at a known index resumes from the
// receiver's high-water mark, not from frame zero.
func TestReplicaResumeShipsOnlyTail(t *testing.T) {
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
	// Big seed image, tiny frames: the seed spans many data frames. Cut
	// the forward wire mid-seed via the fault plan.
	for pg := int64(0); pg < workloadPages; pg++ {
		if err := app.write(pg, byte(1+pg)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := net.Config{Window: 4, FrameData: 4 << 10, MaxRetries: 3}
	conn := net.NewConn(net.NewPipe(src.clk, net.DefaultParams(),
		net.Plan{Faults: []net.Fault{{Xmit: 12, Kind: net.FaultPartition, For: time.Hour}}}, net.Plan{}), src.clk, cfg, nil)

	rep, err := app.g.ReplicateToVia(dst.o, conn)
	if !errors.Is(err, net.ErrRetriesExhausted) {
		t.Fatalf("cut seed: err = %v, want retries exhausted", err)
	}
	if rep == nil || !rep.Pending() {
		t.Fatal("cut seed did not return a pending replica handle")
	}
	sentBefore := conn.Stats().FramesSent
	next, total, ok := conn.SessionProgress(rep.pending.epoch)
	if !ok || next == 0 || next >= total {
		t.Fatalf("session after the cut: next=%d total=%d ok=%v", next, total, ok)
	}

	src.clk.Advance(2 * time.Hour)
	if err := rep.Resume(); err != nil {
		t.Fatalf("resume: %v", err)
	}
	st := conn.Stats()
	if rep.Resumes != 1 {
		t.Fatalf("replica resumes = %d, want 1 (stats %+v)", rep.Resumes, st)
	}
	resumedSent := st.FramesSent - sentBefore
	// The resumed leg must ship strictly fewer data frames than a from-zero
	// retry would (some frames were acked before the cut); on the healed
	// wire it ships exactly the unacked tail.
	if resumedSent != int64(total-next) {
		t.Fatalf("resume shipped %d frames, want the %d-frame tail of %d — no tail skipping", resumedSent, total-next, total)
	}
	img, err := failoverImage(rep, app.va)
	if err != nil {
		t.Fatal(err)
	}
	if err := img.checkModel(app.model, app.jour); err != nil {
		t.Fatal(err)
	}
}

// TestReplicationLossyProperty: seeded random workloads over seeded random
// lossy wires (both directions) must always converge to a standby image
// matching the primary's model. AURORA_SLS_REPL_SEQS overrides the count.
func TestReplicationLossyProperty(t *testing.T) {
	seqs := 200
	if v := os.Getenv("AURORA_SLS_REPL_SEQS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("AURORA_SLS_REPL_SEQS=%q: %v", v, err)
		}
		seqs = n
	}
	if testing.Short() {
		seqs = 25
	}
	for seed := int64(0); seed < int64(seqs); seed++ {
		if err := lossyPropertyRun(seed); err != nil {
			t.Errorf("[seed=%d] %v", seed, err)
		}
	}
}

func lossyPropertyRun(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	fwd := net.Plan{
		Seed:        seed*2 + 1,
		DropProb:    rng.Float64() * 0.15,
		DupProb:     rng.Float64() * 0.08,
		ReorderProb: rng.Float64() * 0.08,
		CorruptProb: rng.Float64() * 0.08,
	}
	var rev net.Plan
	if seed%3 == 0 {
		// Every third seed also loses and corrupts acks.
		rev = net.Plan{Seed: seed*2 + 2, DropProb: rng.Float64() * 0.15, CorruptProb: rng.Float64() * 0.05}
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("fwd{%v} rev{%v}: %s", fwd, rev, fmt.Sprintf(format, args...))
	}

	src, err := newWorldE()
	if err != nil {
		return err
	}
	dst, err := newWorldE()
	if err != nil {
		return err
	}
	app, err := startReplApp(src)
	if err != nil {
		return err
	}
	conn := net.NewConn(net.NewPipe(src.clk, net.DefaultParams(), fwd, rev), src.clk, replConfig(), nil)

	mutate := func() error {
		for i, n := 0, 1+rng.Intn(6); i < n; i++ {
			if err := app.write(int64(rng.Intn(workloadPages)), byte(1+rng.Intn(255))); err != nil {
				return err
			}
		}
		if rng.Intn(2) == 0 {
			p := make([]byte, 8+rng.Intn(56))
			rng.Read(p)
			return app.append(p)
		}
		return nil
	}

	if err := mutate(); err != nil {
		return fail("workload: %v", err)
	}
	rep, err := app.g.ReplicateToVia(dst.o, conn)
	if err != nil {
		return fail("seed transfer: %v", err)
	}
	syncs := 2 + rng.Intn(3)
	for i := 0; i < syncs; i++ {
		if err := mutate(); err != nil {
			return fail("workload: %v", err)
		}
		if err := rep.Sync(); err != nil {
			return fail("sync %d: %v", i, err)
		}
	}
	img, err := failoverImage(rep, app.va)
	if err != nil {
		return fail("%v", err)
	}
	if err := img.checkModel(app.model, app.jour); err != nil {
		return fail("standby diverged: %v", err)
	}
	return nil
}

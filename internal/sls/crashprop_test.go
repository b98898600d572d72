package sls

// Crash-recovery property tests at the SLS level: run a workload over a
// fault-injecting device, cut power at a chosen submit index, reboot, and
// verify that RestoreGroup reproduces exactly the memory image and journal
// contents of a committed checkpoint. The op streams are deterministic
// (seeded), so every failure replays from its printed seed + crash index.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"aurora/internal/clock"
	"aurora/internal/device"
	"aurora/internal/faultdev"
	"aurora/internal/kern"
	"aurora/internal/mem"
	"aurora/internal/objstore"
	"aurora/internal/slsfs"
	"aurora/internal/vm"
)

// faultWorld is a full simulated machine whose store runs over faultdev.
type faultWorld struct {
	clk   *clock.Virtual
	costs *clock.Costs
	fd    *faultdev.Dev
	store *objstore.Store
	fs    *slsfs.FS
	k     *kern.Kernel
	o     *Orchestrator
}

// newFaultWorld builds and formats a machine fault-free, waits until the
// whole setup (store + slsfs) is durable, then arms the plan. Submit
// indexes below the post-setup count are out of the crash space.
func newFaultWorld(plan faultdev.Plan) (*faultWorld, error) {
	clk := clock.NewVirtual()
	costs := clock.DefaultCosts()
	stripe := device.NewStripe(clk, costs, 4, 64<<10, 256<<20)
	fd := faultdev.New(stripe, clk, faultdev.Plan{CutAtSubmit: -1})
	store, err := objstore.Format(fd, clk, costs)
	if err != nil {
		return nil, fmt.Errorf("format: %w", err)
	}
	fs, err := slsfs.Format(store, clk, costs)
	if err != nil {
		return nil, fmt.Errorf("slsfs format: %w", err)
	}
	vmsys := vm.NewSystem(mem.New(0), clk, costs)
	k := kern.New(clk, costs, vmsys, fs)
	w := &faultWorld{clk: clk, costs: costs, fd: fd, store: store, fs: fs, k: k, o: New(k, store)}
	if err := store.WaitDurable(store.Epoch()); err != nil {
		return nil, err
	}
	fd.Arm(plan)
	return w, nil
}

// recovered is the machine after a reboot: a fresh kernel over the store
// recovered from the same device (recovery only reads, so it can repeat).
func (w *faultWorld) recovered() (*faultWorld, error) {
	store, err := objstore.Recover(w.fd, w.clk, w.costs, nil)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	fs, err := slsfs.Recover(store, w.clk, w.costs)
	if err != nil {
		return nil, fmt.Errorf("slsfs recovery: %w", err)
	}
	k := kern.New(w.clk, w.costs, vm.NewSystem(mem.New(0), w.clk, w.costs), fs)
	return &faultWorld{clk: w.clk, costs: w.costs, fd: w.fd, store: store, fs: fs, k: k, o: New(k, store)}, nil
}

// slsOp is one deterministic workload operation.
type slsOp struct {
	kind    int // 0 write page, 1 inc ckpt, 2 full ckpt, 3 mem-only ckpt, 4 journal append, 5 barrier, 6 retain, 7 reboot, 8 scratch
	page    int64
	val     byte
	payload []byte
}

const (
	opWrite = iota
	opCkptInc
	opCkptFull
	opCkptMem
	opAppend
	opBarrier
	opRetain  // Group.RetainEpochs = page
	opReboot  // clean reboot + continuing restore in RestoreMode(page)
	opScratch // store page write outside the group (what a file write does): allocates at once
)

// jEntry is one appended journal frame the model expects to replay.
type jEntry struct {
	seq     uint64
	payload []byte
}

// slsPoint is a golden: the logical application image at one committed
// store epoch. A nil mem map marks a pre-group setup epoch (the group must
// NOT be restorable there).
type slsPoint struct {
	epoch objstore.Epoch
	after int64 // device submit count right after the commit returned
	mem   map[int64]byte
	jour  []jEntry
	pipe  []byte // what the application's pipe buffered at the commit
}

const workloadPages = 32

// The workload's one kernel object behind the generation gate: a pipe that
// takes a byte with every memory write, so some checkpoints find it changed
// and some find it idle, and every restored image must hold its bytes.
const pipeRFD, pipeWFD = 0, 1

// slsRun drives one op list against one world, recording goldens.
type slsRun struct {
	w      *faultWorld
	p      *kern.Proc
	g      *Group
	va     uint64
	model  map[int64]byte
	jour   []jEntry
	pipe   []byte
	points []slsPoint

	scratch objstore.OID // opScratch's object, made on first use
}

func startRun(plan faultdev.Plan) (*slsRun, error) {
	w, err := newFaultWorld(plan)
	if err != nil {
		return nil, err
	}
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
	if rfd, wfd, err := p.Pipe(); err != nil || rfd != pipeRFD || wfd != pipeWFD {
		return nil, fmt.Errorf("pipe: fds %d,%d, err %v", rfd, wfd, err)
	}
	r := &slsRun{w: w, p: p, g: g, va: va, model: make(map[int64]byte)}
	// Point zero: the durable pre-group world. Restores must fail here.
	r.points = append(r.points, slsPoint{epoch: w.store.Epoch(), after: w.fd.Submits()})
	return r, nil
}

func (r *slsRun) record() {
	memCopy := make(map[int64]byte, len(r.model))
	for pg, v := range r.model {
		memCopy[pg] = v
	}
	jourCopy := append([]jEntry(nil), r.jour...)
	r.points = append(r.points, slsPoint{
		epoch: r.w.store.Epoch(),
		after: r.w.fd.Submits(),
		mem:   memCopy,
		jour:  jourCopy,
		pipe:  append([]byte(nil), r.pipe...),
	})
}

// checkpoint takes one checkpoint and runs the capture gate's oracle over
// what it left: nothing the gate would now skip may differ from the store.
func (r *slsRun) checkpoint(kind CheckpointKind) error {
	if _, err := r.g.Checkpoint(kind); err != nil {
		return err
	}
	if v := captureViolations(r.g); len(v) > 0 {
		return fmt.Errorf("sls.capture after a kind-%d checkpoint: %d violation(s), first: %s", kind, len(v), v[0])
	}
	return nil
}

func (r *slsRun) apply(op slsOp) error {
	switch op.kind {
	case opWrite:
		if err := r.p.WriteMem(r.va+uint64(op.page)*vm.PageSize, []byte{op.val}); err != nil {
			return err
		}
		r.model[op.page] = op.val
		if _, err := r.p.Write(pipeWFD, []byte{op.val}); err != nil {
			return err
		}
		r.pipe = append(r.pipe, op.val)
	case opCkptInc, opCkptFull:
		kind := CkptIncremental
		if op.kind == opCkptFull {
			kind = CkptFull
		}
		if err := r.checkpoint(kind); err != nil {
			return err
		}
		r.record()
	case opCkptMem:
		if err := r.checkpoint(CkptMemOnly); err != nil {
			return err
		}
	case opAppend:
		j, err := r.g.Journal("wal", 1<<20)
		if err != nil {
			return err
		}
		seq, err := j.Append(op.payload)
		if err != nil {
			return err
		}
		r.jour = append(r.jour, jEntry{seq: seq, payload: op.payload})
	case opBarrier:
		if err := r.g.Barrier(); err != nil {
			return err
		}
	case opRetain:
		r.g.RetainEpochs = int(op.page)
	case opReboot:
		return r.reboot(RestoreMode(op.page))
	case opScratch:
		if r.scratch == 0 {
			r.scratch = r.w.store.NewOID()
			r.w.store.Ensure(r.scratch, 0x7e57)
		}
		data := make([]byte, vm.PageSize)
		data[0] = op.val
		return r.w.store.WritePage(r.scratch, op.page, data)
	}
	return nil
}

// reboot replaces the machine with a fresh kernel over the same (healthy)
// device and restores the group from the live store, continuing — what the
// crash-restore chain does between two commits. The caller put a barrier in
// front, so the recovered epoch is the last golden. A lazy restore's pages
// arrive by fault as the golden is checked, the other two modes' from the
// loader, so the checkpoint that follows sees pages that arrived both ways.
func (r *slsRun) reboot(mode RestoreMode) error {
	w, err := r.w.recovered()
	if err != nil {
		return err
	}
	r.w = w
	g, _, err := w.o.RestoreGroup("app", w.store, mode, true)
	if err != nil {
		return err
	}
	if mode != RestoreFull {
		if err := verifyGolden(g, r.va, &r.points[len(r.points)-1]); err != nil {
			return err
		}
	}
	r.g, r.p = g, g.Procs()[0]
	return nil
}

func (r *slsRun) run(ops []slsOp) error {
	for _, op := range ops {
		if err := r.apply(op); err != nil {
			return err
		}
	}
	return nil
}

// slsCrashCheck replays ops with a cut at submit index k and verifies
// recovery + restore against the baseline goldens.
func slsCrashCheck(seed int64, ops []slsOp, points []slsPoint, k int64, torn, drop bool) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("[seed=%d crash-index=%d torn=%v dropInFlight=%v] %s",
			seed, k, torn, drop, fmt.Sprintf(format, args...))
	}
	r, err := startRun(faultdev.Plan{Seed: seed, CutAtSubmit: k, Torn: torn, DropInFlight: drop})
	if err != nil {
		return fail("world: %v", err)
	}
	werr := r.run(ops)
	if werr == nil {
		return fail("replay diverged: workload finished without hitting the cut (total %d)", r.w.fd.Submits())
	}
	if !r.w.fd.Crashed() {
		return fail("workload failed before the cut: %v", werr)
	}

	// Reboot.
	r.w.fd.Reopen()
	w2, err := r.w.recovered()
	if err != nil {
		return fail("%v", err)
	}
	store2, o2 := w2.store, w2.o
	if rep := store2.Fsck(); !rep.OK() {
		return fail("fsck found %d problems: %v", len(rep.Problems), rep.Problems)
	}

	// Which committed epochs may the reboot land on? Same contract as the
	// faultdev harness: exactly the last commit under the prefix model
	// (plus the committing epoch when tearing landed its superblock
	// whole); any not-newer commit under DropInFlight.
	last := 0
	for i := range points {
		if points[i].after <= k {
			last = i
		}
	}
	var allowed []int
	if drop {
		for i := 0; i <= last; i++ {
			allowed = append(allowed, i)
		}
	} else {
		allowed = []int{last}
	}
	if last+1 < len(points) && torn && k == points[last+1].after-1 {
		allowed = append(allowed, last+1)
	}
	var golden *slsPoint
	for _, i := range allowed {
		if points[i].epoch == store2.Epoch() {
			golden = &points[i]
			break
		}
	}
	if golden == nil {
		want := make([]objstore.Epoch, len(allowed))
		for i, idx := range allowed {
			want[i] = points[idx].epoch
		}
		return fail("recovered epoch %d, want one of %v", store2.Epoch(), want)
	}

	if err := verifyHistory(store2, points); err != nil {
		return fail("history behind epoch %d: %v", golden.epoch, err)
	}

	if golden.mem == nil {
		// Pre-group epoch: the group record never committed, so the
		// restore must fail cleanly rather than fabricate a group —
		// in either restore mode.
		if _, _, err := o2.RestoreGroup("app", store2, RestoreFull, true); err == nil {
			return fail("restored a group from epoch %d, before its first checkpoint", golden.epoch)
		}
		if _, _, err := o2.RestoreGroup("app", store2, RestoreSpeculative, true); err == nil {
			return fail("speculatively restored a group from epoch %d, before its first checkpoint", golden.epoch)
		}
		return nil
	}

	g2, rst, err := o2.RestoreGroup("app", store2, RestoreFull, true)
	if err != nil {
		return fail("restore from epoch %d: %v", golden.epoch, err)
	}
	if rst.Procs != 1 {
		return fail("restored %d procs, want 1", rst.Procs)
	}
	if err := verifyGolden(g2, r.va, golden); err != nil {
		return fail("epoch %d: %v", golden.epoch, err)
	}

	// The same crash point replays through speculative restore: a second
	// recovery over the same device (Recover is read-only, so it lands on
	// the same committed epoch), every object rebuilt before any page, then
	// the loader.
	r.w.fd.Reopen()
	w3, err := r.w.recovered()
	if err != nil {
		return fail("speculative: %v", err)
	}
	store3, o3 := w3.store, w3.o
	if store3.Epoch() != store2.Epoch() {
		return fail("speculative: second recovery landed on epoch %d, first on %d", store3.Epoch(), store2.Epoch())
	}
	g3, _, err := o3.RestoreGroup("app", store3, RestoreSpeculative, true)
	if err != nil {
		return fail("speculative restore from epoch %d: %v", golden.epoch, err)
	}
	if err := verifyGolden(g3, r.va, golden); err != nil {
		return fail("speculative: epoch %d: %v", golden.epoch, err)
	}
	if probs := store3.AuditLive(); len(probs) > 0 {
		return fail("speculative: AuditLive after replay: %v", probs)
	}
	return nil
}

// verifyGolden checks a restored group's memory and journal against one
// golden point. Reads fault lazily where the restore mode left holes.
func verifyGolden(g *Group, va uint64, golden *slsPoint) error {
	procs := g.Procs()
	if len(procs) != 1 {
		return fmt.Errorf("group has %d procs, want 1", len(procs))
	}
	rp := procs[0]
	buf := make([]byte, 1)
	for pg, want := range golden.mem {
		if err := rp.ReadMem(va+uint64(pg)*vm.PageSize, buf); err != nil {
			return fmt.Errorf("read page %d: %v", pg, err)
		}
		if buf[0] != want {
			return fmt.Errorf("page %d = %#x, want %#x", pg, buf[0], want)
		}
	}
	f, err := rp.FDs.Get(pipeRFD)
	if err != nil {
		return fmt.Errorf("pipe: %v", err)
	}
	if pipe, ok := behind(f).(*kern.Pipe); !ok {
		return fmt.Errorf("descriptor %d restored as %v, want the pipe", pipeRFD, f.Impl.Kind())
	} else if got := pipe.Buffered(); !bytes.Equal(got, golden.pipe) {
		return fmt.Errorf("pipe holds % x, want % x", got, golden.pipe)
	}
	if len(golden.jour) > 0 {
		j, err := g.OpenJournal("wal")
		if err != nil {
			return fmt.Errorf("journal: %v", err)
		}
		got, err := j.Entries()
		if err != nil {
			return fmt.Errorf("journal scan: %v", err)
		}
		// Appends are durable on return, so every golden frame must have
		// survived; later frames may legitimately replay too.
		if len(got) < len(golden.jour) {
			return fmt.Errorf("journal lost entries: %d recovered, %d appended", len(got), len(golden.jour))
		}
		for i, we := range golden.jour {
			if got[i].Seq != we.seq || string(got[i].Payload) != string(we.payload) {
				return fmt.Errorf("journal entry %d differs", i)
			}
		}
	}
	return nil
}

// verifyHistory checks every epoch the recovered store still retains: its
// image opens, every stored page of every memory object reads back (the
// store refuses one that does not match the sum it was committed with), and
// the application arena reads back as the golden taken at that commit. A block released inside a commit and handed out again
// before that commit's superblock was durable shows up here — the cut
// recovers the previous index, which still lists the history the block
// belonged to.
func verifyHistory(s *objstore.Store, points []slsPoint) error {
	for _, ep := range s.RetainedCheckpoints() {
		v, err := s.RestoreView(ep)
		if err != nil {
			return fmt.Errorf("retained epoch %d: %v", ep, err)
		}
		var golden *slsPoint
		for i := range points {
			if points[i].epoch == ep {
				golden = &points[i]
			}
		}
		for _, oid := range v.Objects() {
			if ut, _ := v.UType(oid); ut != UTMemObject {
				continue
			}
			size, _ := v.Size(oid)
			_, err := v.EachPageBulk(oid, func(pg int64, data []byte) error {
				if golden != nil && golden.mem != nil && size == workloadPages*vm.PageSize && data[0] != golden.mem[pg] {
					return fmt.Errorf("page %d = %#x, golden %#x", pg, data[0], golden.mem[pg])
				}
				return nil
			})
			if err != nil && !errors.Is(err, objstore.ErrIsJournal) { // journals share the utype
				return fmt.Errorf("retained epoch %d, object %d: %v", ep, oid, err)
			}
		}
	}
	return nil
}

// refOps is the fixed workload for the exhaustive sweep: memory writes,
// incremental/full/mem-only checkpoints, and journal appends.
func refOps() []slsOp {
	return []slsOp{
		{kind: opWrite, page: 0, val: 0x11},
		{kind: opWrite, page: 1, val: 0x22},
		{kind: opWrite, page: 5, val: 0x33},
		{kind: opCkptInc},
		{kind: opAppend, payload: []byte("frame-one")},
		{kind: opAppend, payload: []byte("frame-two")},
		{kind: opWrite, page: 1, val: 0x44},
		{kind: opWrite, page: 9, val: 0x55},
		{kind: opCkptFull},
		{kind: opCkptMem},
		{kind: opWrite, page: 2, val: 0x66},
		{kind: opAppend, payload: []byte("frame-three")},
		{kind: opBarrier},
		{kind: opWrite, page: 5, val: 0x77},
		{kind: opCkptInc},
	}
}

// TestCrashRestoreExhaustive cuts power at every submit index of the
// reference workload and verifies restore after each reboot.
func TestCrashRestoreExhaustive(t *testing.T) {
	for _, drop := range []bool{false, true} {
		name := "prefix"
		if drop {
			name = "dropInFlight"
		}
		t.Run(name, func(t *testing.T) {
			base, err := startRun(faultdev.Plan{Seed: 42, CutAtSubmit: -1})
			if err != nil {
				t.Fatal(err)
			}
			ops := refOps()
			if err := base.run(ops); err != nil {
				t.Fatalf("baseline: %v", err)
			}
			setup := base.points[0].after
			total := base.w.fd.Submits()
			if total-setup < 20 {
				t.Fatalf("workload too small to be interesting: %d crash points", total-setup)
			}
			fails := 0
			for k := setup; k < total; k++ {
				if err := slsCrashCheck(42, ops, base.points, k, true, drop); err != nil {
					fails++
					t.Errorf("%v", err)
				}
			}
			if fails == 0 {
				t.Logf("swept %d crash points over %d commits", total-setup, len(base.points)-1)
			}
		})
	}
}

// restoreOps is the crash-restore chain in miniature: four commits under a
// retention of two, a clean reboot with a continuing restore, then the first
// post-restore checkpoint — whose commit releases history in front of its
// index — and one more interval that allocates while that commit's
// superblock may still sit in a device queue.
func restoreOps(mode RestoreMode) []slsOp {
	return []slsOp{
		{kind: opRetain, page: 2},
		{kind: opWrite, page: 0, val: 0x11},
		{kind: opWrite, page: 1, val: 0x22},
		{kind: opWrite, page: 5, val: 0x33},
		{kind: opCkptInc},
		{kind: opWrite, page: 1, val: 0x44},
		{kind: opWrite, page: 9, val: 0x55},
		{kind: opCkptInc},
		{kind: opWrite, page: 2, val: 0x66},
		{kind: opWrite, page: 5, val: 0x67},
		{kind: opCkptInc},
		{kind: opWrite, page: 9, val: 0x68},
		{kind: opCkptInc},
		{kind: opBarrier},
		{kind: opReboot, page: int64(mode)},
		{kind: opWrite, page: 5, val: 0x77},
		{kind: opWrite, page: 7, val: 0x78},
		{kind: opCkptInc},
		// Allocations while that commit's superblock is still in flight: a
		// block it released must not be among them.
		{kind: opScratch, page: 0, val: 0x01},
		{kind: opScratch, page: 1, val: 0x02},
		{kind: opScratch, page: 2, val: 0x03},
		{kind: opWrite, page: 2, val: 0x88},
		{kind: opWrite, page: 1, val: 0x89},
		{kind: opCkptInc},
	}
}

// TestCrashAfterRestoreExhaustive cuts power at every submit index from the
// reboot on — the whole first post-restore checkpoint and the interval after
// it — for each restore mode and both fault models (torn always on). The
// recovered image must be the golden before or after the cut, with every
// retained epoch behind it intact (slsCrashCheck's verifyHistory).
func TestCrashAfterRestoreExhaustive(t *testing.T) {
	for _, mode := range []RestoreMode{RestoreFull, RestoreLazy, RestoreSpeculative} {
		for _, drop := range []bool{false, true} {
			t.Run(fmt.Sprintf("mode=%d/drop=%v", mode, drop), func(t *testing.T) {
				ops := restoreOps(mode)
				base, err := startRun(faultdev.Plan{Seed: 42, CutAtSubmit: -1})
				if err != nil {
					t.Fatal(err)
				}
				if err := base.run(ops); err != nil {
					t.Fatalf("baseline: %v", err)
				}
				if got := base.w.store.RetainedCheckpoints(); len(got) != 2 {
					t.Fatalf("retained %v after the chain, want 2 epochs (the restored group forgot its retention?)", got)
				}
				from := base.points[4].after // the reboot submits nothing
				total := base.w.fd.Submits()
				if total-from < 12 {
					t.Fatalf("only %d crash points after the restore", total-from)
				}
				for k := from; k < total; k++ {
					if err := slsCrashCheck(42, ops, base.points, k, true, drop); err != nil {
						t.Errorf("%v", err)
					}
				}
				t.Logf("swept %d crash points over the 2 post-restore commits", total-from)
			})
		}
	}
}

// randomOps builds a seeded random op sequence ending in a commit.
func randomOps(seed int64) []slsOp {
	rng := rand.New(rand.NewSource(seed))
	n := 12 + rng.Intn(14)
	ops := make([]slsOp, 0, n+2)
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			ops = append(ops, slsOp{kind: opWrite, page: int64(rng.Intn(workloadPages)), val: byte(1 + rng.Intn(255))})
		case 4:
			ops = append(ops, slsOp{kind: opCkptInc})
		case 5:
			ops = append(ops, slsOp{kind: opCkptFull})
		case 6:
			ops = append(ops, slsOp{kind: opCkptMem})
		case 7, 8:
			p := make([]byte, 8+rng.Intn(56))
			rng.Read(p)
			ops = append(ops, slsOp{kind: opAppend, payload: p})
		case 9:
			ops = append(ops, slsOp{kind: opBarrier})
		}
	}
	ops = append(ops, slsOp{kind: opWrite, page: int64(rng.Intn(workloadPages)), val: byte(1 + rng.Intn(255))})
	ops = append(ops, slsOp{kind: opCkptInc})
	return ops
}

// TestCrashRecoverRestoreProperty runs many seeded random op sequences,
// cutting each at a seeded random submit index, alternating fault models.
// AURORA_SLS_CRASH_SEQS overrides the sequence count.
func TestCrashRecoverRestoreProperty(t *testing.T) {
	seqs := 200
	if v := os.Getenv("AURORA_SLS_CRASH_SEQS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("AURORA_SLS_CRASH_SEQS=%q: %v", v, err)
		}
		seqs = n
	}
	if testing.Short() {
		seqs = 25
	}
	for seed := int64(0); seed < int64(seqs); seed++ {
		ops := randomOps(seed)
		base, err := startRun(faultdev.Plan{Seed: seed, CutAtSubmit: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := base.run(ops); err != nil {
			t.Fatalf("baseline seed %d: %v", seed, err)
		}
		setup := base.points[0].after
		total := base.w.fd.Submits()
		if total <= setup {
			t.Fatalf("seed %d: workload submitted nothing", seed)
		}
		kRng := rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
		k := setup + kRng.Int63n(total-setup)
		drop := seed%2 == 1
		if err := slsCrashCheck(seed, ops, base.points, k, true, drop); err != nil {
			t.Errorf("%v", err)
		}
	}
}

package faultdev

// The crash-exploration harness: run a workload once fault-free to learn
// the total submit count and capture golden images at every commit, then
// re-run it crashing at every submit index k and assert that the store
// recovers to a clean fsck and an image byte-identical to exactly the last
// committed epoch (or, when the cut landed a complete superblock, the
// epoch that was committing). Every failure prints the seed and crash
// index that replay it deterministically.

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"aurora/internal/clock"
	"aurora/internal/device"
	"aurora/internal/flight"
	"aurora/internal/objstore"
	"aurora/internal/trace"
)

// Workload drives a store deterministically. It must route every
// checkpoint through Ctl.Commit (so goldens are captured), propagate
// errors immediately, and perform no host-nondeterministic operations —
// the harness replays it expecting the identical submit stream.
type Workload func(ctl *Ctl) error

// objSnap is the logical content of one object at a commit point.
type objSnap struct {
	utype   uint16
	size    int64
	journal bool
	content []byte           // nil for journals
	entries []objstore.Entry // journal replay set at the commit
}

// snapshot is a full logical image of the store.
type snapshot map[objstore.OID]objSnap

// commitPoint records one committed durability point during the baseline
// run. A point is identified by (epoch, walSeq): full checkpoints commit a
// new epoch with walSeq zero, WAL commits stay on the same epoch and
// advance the frame sequence.
type commitPoint struct {
	epoch  objstore.Epoch
	walSeq uint64
	after  int64 // Dev.Submits() immediately after the commit returned
	snap   snapshot

	// ring and ringSeq are the flight ring the commit carries: the
	// recorder's as it cut it. The formatted point carries none (hasRing).
	ring    []flight.Event
	ringSeq uint64
	hasRing bool
}

// Ctl hands the workload its store and device and records commit goldens.
type Ctl struct {
	Store *objstore.Store
	Dev   *Dev
	Clk   *clock.Virtual
	Costs *clock.Costs
	Tr    *trace.Tracer    // non-nil only on traced failure replays
	Fl    *flight.Recorder // live flight ring, carried by every commit

	points  []commitPoint
	history []flight.Event // every event Fl recorded, event n at n-1 (see note)
	began   uint64         // Fl.Seq() when the commit in progress began
}

// Commit checkpoints the store and records the committed image as a
// golden. Workloads must use it instead of calling Checkpoint directly.
func (c *Ctl) Commit() error {
	c.began = c.note()
	if _, err := c.Store.Checkpoint(); err != nil {
		return err
	}
	c.record()
	return nil
}

// CommitWAL appends one WAL delta frame and records the resulting
// (epoch, walSeq) state as a golden. ErrWALFull propagates to the workload,
// which folds and retries — deterministically, so every replay hits the
// same fallback at the same submit index.
func (c *Ctl) CommitWAL() error {
	c.began = c.note()
	if _, err := c.Store.WALCommit(); err != nil {
		return err
	}
	c.record()
	return nil
}

// Fold runs a full checkpoint, waits out its durability, and releases the
// dead WAL generation — the log-structured GC step — then records the
// golden.
func (c *Ctl) Fold() error {
	c.began = c.note()
	cst, err := c.Store.Checkpoint()
	if err == nil {
		err = c.Store.WaitDurable(cst.Epoch)
	}
	if err != nil {
		return err
	}
	c.record()
	return nil
}

// Barrier waits until the newest commit is durable: everything submitted
// so far leaves the droppable window.
func (c *Ctl) Barrier() error {
	return c.Store.WaitDurable(c.Store.Epoch())
}

// note brings history up to the recorder and returns its seq. The recorder
// is a bounded ring, so history has no gap as long as the workload records
// fewer than its capacity between two commits.
func (c *Ctl) note() uint64 {
	evs, seq := c.Fl.Events(), c.Fl.Seq()
	if n := int(seq) - len(c.history); n > 0 && n <= len(evs) {
		c.history = append(c.history, evs[len(evs)-n:]...)
	}
	return seq
}

func (c *Ctl) record() {
	snap, err := snapshotStore(c.Store)
	if err != nil {
		// Snapshot reads hit the (healthy) device; failure here means the
		// run is already broken and the sweep's verification will say so.
		return
	}
	c.note()
	// A commit cuts the ring right after the wal.append or wal.fold event it
	// records first, if it records one; the events after that are its own
	// writes, settles and GC.
	seq := c.began
	if int(seq) < len(c.history) {
		if k := c.history[seq].Kind; k == flight.EvWALAppend || k == flight.EvWALFold {
			seq++
		}
	}
	ring := c.history[max(0, int(seq)-flight.DefaultCap):seq]
	c.points = append(c.points, commitPoint{
		epoch:   c.Store.Epoch(),
		walSeq:  c.Store.WALSeq(),
		after:   c.Dev.Submits(),
		snap:    snap,
		ring:    ring,
		ringSeq: seq,
		hasRing: len(c.points) > 0,
	})
}

// snapshotStore captures every live object's logical content.
func snapshotStore(s *objstore.Store) (snapshot, error) {
	out := make(snapshot)
	for _, oid := range s.Objects() {
		ut, err := s.UType(oid)
		if err != nil {
			return nil, err
		}
		size, err := s.Size(oid)
		if err != nil {
			return nil, err
		}
		content, err := s.GetRecord(oid)
		if errors.Is(err, objstore.ErrIsJournal) {
			j, err := s.OpenJournal(oid)
			if err != nil {
				return nil, err
			}
			entries, err := j.Entries()
			if err != nil {
				return nil, err
			}
			out[oid] = objSnap{utype: ut, size: size, journal: true, entries: entries}
			continue
		}
		if err != nil {
			return nil, err
		}
		out[oid] = objSnap{utype: ut, size: size, content: content}
	}
	return out, nil
}

// Harness explores every crash point of one deterministic workload.
type Harness struct {
	Seed         int64
	Torn         bool // tear the cut write into a PRNG-chosen sector prefix
	DropInFlight bool // lose writes still in the queue at the cut
	Workload     Workload

	// PerDevSize is the stripe member size; 0 means 64 MiB.
	PerDevSize int64
}

func (h *Harness) perDev() int64 {
	if h.PerDevSize > 0 {
		return h.PerDevSize
	}
	return 64 << 20
}

// newRun builds a fresh world (stripe under faultdev), formats the store
// fault-free, records the formatted image as golden point zero, then arms
// the plan. Crashes during mkfs are out of scope: an interrupted format
// has no committed state to recover. With traced set, a tracer keyed to
// the run's virtual clock is wired through the stripe, the fault device,
// and the store, so the run produces a full event timeline.
func (h *Harness) newRun(plan Plan, traced bool) (*Ctl, error) {
	clk := clock.NewVirtual()
	costs := clock.DefaultCosts()
	stripe := device.NewStripe(clk, costs, 4, 64<<10, h.perDev())
	fd := New(stripe, clk, Plan{CutAtSubmit: -1})
	var tr *trace.Tracer
	if traced {
		tr = trace.New(clk)
		stripe.SetTracer(tr)
		fd.SetTracer(tr)
	}
	s, err := objstore.Format(fd, clk, costs)
	if err != nil {
		return nil, fmt.Errorf("format: %w", err)
	}
	s.SetTracer(tr)
	// Every run carries a flight recorder: the stripe logs barrier writes,
	// the fault device logs cuts/tears/rollbacks, and every commit carries
	// the ring — so every recovered image carries its own pre-crash
	// timeline.
	fl := flight.NewRecorder(0)
	stripe.SetFlight(fl)
	fd.SetFlight(fl)
	s.SetFlight(fl)
	ctl := &Ctl{Store: s, Dev: fd, Clk: clk, Costs: costs, Tr: tr, Fl: fl}
	ctl.record()
	fd.Arm(plan)
	return ctl, nil
}

// Report summarizes an exploration sweep.
type Report struct {
	TotalSubmits int64 // counted across the whole baseline run
	CrashPoints  int64 // indexes swept (post-format)
	Commits      int   // committed epochs in the baseline (incl. format)
	Failures     int
}

// Explore runs the baseline, then sweeps a crash at every post-format
// submit index. Failures are reported on t with the seed and crash index.
func (h *Harness) Explore(t testing.TB) Report {
	base, err := h.newRun(Plan{Seed: h.Seed, CutAtSubmit: -1}, false)
	if err != nil {
		t.Fatalf("harness baseline: %v", err)
	}
	format := base.points[0].after
	if err := h.Workload(base); err != nil {
		t.Fatalf("harness baseline workload (seed %d): %v", h.Seed, err)
	}
	total := base.Dev.Submits()
	rep := Report{TotalSubmits: total, CrashPoints: total - format, Commits: len(base.points)}
	for k := format; k < total; k++ {
		if err := h.replayOne(base.points, k); err != nil {
			rep.Failures++
			t.Errorf("crash sweep: %v", err)
		}
	}
	return rep
}

// Replay re-runs the workload crashing at submit index k and verifies
// recovery, for reproducing a sweep failure in isolation.
func (h *Harness) Replay(t testing.TB, k int64) {
	base, err := h.newRun(Plan{Seed: h.Seed, CutAtSubmit: -1}, false)
	if err != nil {
		t.Fatalf("harness baseline: %v", err)
	}
	if err := h.Workload(base); err != nil {
		t.Fatalf("harness baseline workload (seed %d): %v", h.Seed, err)
	}
	if err := h.replayOne(base.points, k); err != nil {
		t.Errorf("%v", err)
	}
}

// replayOne runs one crashing replay and verifies the recovered store. On
// failure it re-runs the identical deterministic plan with a tracer wired
// through the whole stack and returns the traced failure, so every sweep
// error ships its own flight recording of the virtual timeline.
func (h *Harness) replayOne(points []commitPoint, k int64) error {
	err := h.replayAttempt(points, k, false)
	if err == nil {
		return nil
	}
	if terr := h.replayAttempt(points, k, true); terr != nil {
		return terr
	}
	// The traced rerun passed — replay nondeterminism, which is itself a
	// bug. Report the original failure, flagged.
	return fmt.Errorf("%v (NOT reproduced by traced rerun: replay is nondeterministic)", err)
}

// replayAttempt runs one crashing replay and verifies the recovered store.
func (h *Harness) replayAttempt(points []commitPoint, k int64, traced bool) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("[seed=%d crash-index=%d torn=%v dropInFlight=%v] %s",
			h.Seed, k, h.Torn, h.DropInFlight, fmt.Sprintf(format, args...))
	}
	ctl, err := h.newRun(Plan{
		Seed:         h.Seed,
		CutAtSubmit:  k,
		Torn:         h.Torn,
		DropInFlight: h.DropInFlight,
	}, traced)
	if err != nil {
		return fail("world: %v", err)
	}
	if ctl.Tr != nil {
		plain := fail
		fail = func(format string, args ...any) error {
			return fmt.Errorf("%v\nvirtual timeline (last 40 events):\n%s",
				plain(format, args...), ctl.Tr.TimelineTail(40))
		}
	}
	werr := h.Workload(ctl)
	if werr == nil {
		return fail("replay diverged: workload finished without hitting the cut (total submits %d)", ctl.Dev.Submits())
	}
	if !ctl.Dev.Crashed() {
		return fail("workload failed before the cut: %v", werr)
	}

	// Reboot: recover, fsck, and compare against the goldens.
	ctl.Dev.Reopen()
	s2, err := objstore.Recover(ctl.Dev, ctl.Clk, ctl.Costs, nil)
	if err != nil {
		return fail("recovery failed: %v", err)
	}
	s2.SetTracer(ctl.Tr)
	if rep := s2.Fsck(); !rep.OK() {
		return fail("fsck found %d problems after recovery: %v", len(rep.Problems), rep.Problems)
	}
	if err := verifyCrashLog(ctl.Dev, k, h.Torn, h.DropInFlight); err != nil {
		return fail("crash log: %v", err)
	}

	// Atomicity: under the prefix model the recovered (epoch, walSeq) must
	// be the last point whose commit fully preceded the cut — or, exactly
	// when the cut write was the next point's commit write (superblock or
	// WAL frame) and tearing landed it whole, that next point. Under
	// DropInFlight a commit write may still have been sitting in a device
	// queue when power failed, so recovery may land on any OLDER point too
	// (WAL frames chain behind their interval's horizon, so drops are
	// suffix-closed on the sequence) — but never a newer one, and never
	// anything that is not byte-identical to a commit.
	last := 0
	for i := range points {
		if points[i].after <= k {
			last = i
		}
	}
	var allowed []int
	if h.DropInFlight {
		for i := 0; i <= last; i++ {
			allowed = append(allowed, i)
		}
	} else {
		allowed = []int{last}
	}
	if last+1 < len(points) && h.Torn && k == points[last+1].after-1 {
		allowed = append(allowed, last+1)
	}
	var golden *commitPoint
	for _, i := range allowed {
		if points[i].epoch == s2.Epoch() && points[i].walSeq == s2.WALSeq() {
			golden = &points[i]
			break
		}
	}
	if golden == nil {
		want := make([]string, len(allowed))
		for i, idx := range allowed {
			want[i] = fmt.Sprintf("%d.%d", points[idx].epoch, points[idx].walSeq)
		}
		return fail("recovered epoch %d wal-seq %d, want one of %v", s2.Epoch(), s2.WALSeq(), want)
	}
	if err := compareSnapshot(s2, golden.snap); err != nil {
		return fail("recovered image differs from epoch %d wal-seq %d golden: %v", golden.epoch, golden.walSeq, err)
	}
	// The forensic timeline: the recovered ring is exactly the one the
	// recorder held when the golden commit cut it — no event after the cut,
	// none lost to a failed commit, the replayed WAL phase included.
	evs, seq, ok, err := s2.RecoveredFlight()
	if err != nil || ok != golden.hasRing || seq != golden.ringSeq || !slices.Equal(evs, golden.ring) {
		return fail("recovered flight ring (ok=%v err=%v) at seq %d, %d events, but epoch %d wal-seq %d carried seq %d, %d events:\n%s",
			ok, err, seq, len(evs), golden.epoch, golden.walSeq, golden.ringSeq, len(golden.ring), flight.Format(evs))
	}
	return nil
}

// verifyCrashLog checks the other half of the forensic timeline: the device
// crash log must name the power cut at exactly the swept submit index — the
// recovered timeline explains which write killed the machine.
func verifyCrashLog(dev *Dev, k int64, torn, dropInFlight bool) error {
	log := dev.CrashLog()
	var cut *flight.Event
	for i := range log {
		if log[i].Kind == flight.EvPowerCut {
			if cut != nil {
				return fmt.Errorf("crash log has multiple power cuts:\n%s", flight.Format(log))
			}
			cut = &log[i]
		}
	}
	if cut == nil {
		return fmt.Errorf("crash log has no power-cut event:\n%s", flight.Format(log))
	}
	if cut.A != k {
		return fmt.Errorf("power-cut event at submit %d, want %d", cut.A, k)
	}
	if torn && !dropInFlight {
		found := false
		for _, ev := range log {
			if ev.Kind == flight.EvTornWrite {
				if ev.A != cut.B {
					return fmt.Errorf("torn write at off %d but cut was at off %d", ev.A, cut.B)
				}
				found = true
			}
		}
		if !found {
			return fmt.Errorf("torn plan produced no torn-write event:\n%s", flight.Format(log))
		}
	}
	return nil
}

// compareSnapshot checks the recovered store against a golden image:
// byte-identical content for every object, and for journals the golden
// replay set must be a prefix of the recovered one (frames appended after
// the commit may legitimately have landed in place — at-least-once replay).
func compareSnapshot(s *objstore.Store, want snapshot) error {
	oids := s.Objects()
	if len(oids) != len(want) {
		return fmt.Errorf("object count %d, want %d", len(oids), len(want))
	}
	for _, oid := range oids {
		w, ok := want[oid]
		if !ok {
			return fmt.Errorf("unexpected object %d", oid)
		}
		ut, err := s.UType(oid)
		if err != nil {
			return err
		}
		if ut != w.utype {
			return fmt.Errorf("object %d utype %d, want %d", oid, ut, w.utype)
		}
		if w.journal {
			j, err := s.OpenJournal(oid)
			if err != nil {
				return fmt.Errorf("journal %d: %v", oid, err)
			}
			got, err := j.Entries()
			if err != nil {
				return fmt.Errorf("journal %d scan: %v", oid, err)
			}
			if len(got) < len(w.entries) {
				return fmt.Errorf("journal %d lost entries: %d recovered, %d committed", oid, len(got), len(w.entries))
			}
			for i, we := range w.entries {
				if got[i].Seq != we.Seq || !bytes.Equal(got[i].Payload, we.Payload) {
					return fmt.Errorf("journal %d entry %d: seq %d/%d bytes differ", oid, i, got[i].Seq, we.Seq)
				}
			}
			continue
		}
		size, err := s.Size(oid)
		if err != nil {
			return err
		}
		if size != w.size {
			return fmt.Errorf("object %d size %d, want %d", oid, size, w.size)
		}
		got, err := s.GetRecord(oid)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, w.content) {
			return fmt.Errorf("object %d content differs (%d bytes)", oid, len(got))
		}
	}
	return nil
}

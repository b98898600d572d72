package audit

import (
	"strings"
	"testing"
	"time"

	"aurora/internal/clock"
	"aurora/internal/device"
	"aurora/internal/flight"
	"aurora/internal/kern"
	"aurora/internal/mem"
	"aurora/internal/objstore"
	"aurora/internal/rec"
	"aurora/internal/sls"
	"aurora/internal/slsfs"
	"aurora/internal/vm"
)

type world struct {
	clk   *clock.Virtual
	store *objstore.Store
	k     *kern.Kernel
	o     *sls.Orchestrator
}

func newWorld(t *testing.T) *world {
	t.Helper()
	clk := clock.NewVirtual()
	costs := clock.DefaultCosts()
	dev := device.NewStripe(clk, costs, 4, 64<<10, 1<<30)
	store, err := objstore.Format(dev, clk, costs)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := slsfs.Format(store, clk, costs)
	if err != nil {
		t.Fatal(err)
	}
	vmsys := vm.NewSystem(mem.New(0), clk, costs)
	k := kern.New(clk, costs, vmsys, fs)
	return &world{clk: clk, store: store, k: k, o: sls.New(k, store)}
}

// busyWorld attaches one process with mapped memory, a pipe, and a socket
// pair — enough graph to exercise every rule family.
func busyWorld(t *testing.T) (*world, *kern.Proc) {
	t.Helper()
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}
	va, err := p.Mmap(1<<20, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	p.WriteMem(va, []byte("audit me"))
	if _, _, err := p.Pipe(); err != nil {
		t.Fatal(err)
	}
	child := p.Fork()
	child.WriteMem(va, []byte("diverged"))
	return w, p
}

func TestCleanSystemPasses(t *testing.T) {
	w, _ := busyWorld(t)
	a := &Auditor{Store: w.store, K: w.k, O: w.o, Clk: w.clk}
	rep := a.Run()
	if !rep.OK() {
		t.Fatalf("clean system audit failed:\n%s", rep)
	}
	if rep.Rules < 5 {
		t.Fatalf("expected >=5 rule families, got %d", rep.Rules)
	}
	if rep.Objects == 0 {
		t.Fatal("audit visited no objects")
	}
}

func TestCleanAfterCheckpointAndCrash(t *testing.T) {
	w, _ := busyWorld(t)
	g, _ := w.o.GroupByName("app")
	if _, err := g.Checkpoint(sls.CkptIncremental); err != nil {
		t.Fatal(err)
	}
	a := &Auditor{Store: w.store, K: w.k, O: w.o, Clk: w.clk}
	if rep := a.Run(); !rep.OK() {
		t.Fatalf("post-checkpoint audit failed:\n%s", rep)
	}
}

func TestEpochRegressionDetected(t *testing.T) {
	w, _ := busyWorld(t)
	g, _ := w.o.GroupByName("app")
	if _, err := g.Checkpoint(sls.CkptIncremental); err != nil {
		t.Fatal(err)
	}
	a := &Auditor{Store: w.store, O: w.o, Clk: w.clk}
	if rep := a.Run(); !rep.OK() {
		t.Fatalf("baseline: %s", rep)
	}
	// Seed the watchdog memory ahead of reality: the next pass must flag
	// the apparent regression for both the store and the group.
	a.lastStoreEpoch = a.lastStoreEpoch + 100
	a.lastGroupEpoch["app"] = a.lastGroupEpoch["app"] + 100
	rep := a.Run()
	if rep.OK() {
		t.Fatal("epoch regression not detected")
	}
	var store, group bool
	for _, v := range rep.Violations {
		if v.Rule == "store.epoch" {
			store = true
		}
		if v.Rule == "sls.epoch" && strings.Contains(v.Detail, "backwards") {
			group = true
		}
	}
	if !store || !group {
		t.Fatalf("missing regression violations (store=%v group=%v):\n%s", store, group, rep)
	}
}

func TestViolationsFeedFlightRing(t *testing.T) {
	w, _ := busyWorld(t)
	fl := flight.NewRecorder(0)
	a := &Auditor{Store: w.store, O: w.o, Fl: fl, Clk: w.clk}
	a.lastStoreEpoch = 100 // force a violation
	rep := a.Run()
	if rep.OK() {
		t.Fatal("expected a violation")
	}
	evs := fl.Events()
	if len(evs) == 0 {
		t.Fatal("no flight events recorded")
	}
	found := false
	for _, ev := range evs {
		if ev.Kind == flight.EvAuditViolation && strings.Contains(ev.Detail, "store.epoch") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no EvAuditViolation with store.epoch detail in %v", evs)
	}
}

func TestStoreOnlyAuditor(t *testing.T) {
	// The crash harness runs with only a store: every other layer must be
	// skippable without nil panics.
	w := newWorld(t)
	a := &Auditor{Store: w.store}
	if rep := a.Run(); !rep.OK() {
		t.Fatalf("store-only audit failed:\n%s", rep)
	}
}

func TestDeadObjectInEntryDetected(t *testing.T) {
	w, p := busyWorld(t)
	// Find a mapped object and force-kill it behind the map's back.
	var obj *vm.Object
	for _, e := range p.Mem.Entries() {
		if e.Obj != nil {
			obj = e.Obj
			break
		}
	}
	if obj == nil {
		t.Fatal("no mapped object")
	}
	for obj.RefCount() > 0 {
		obj.Deref()
	}
	a := &Auditor{Store: w.store, O: w.o, Clk: w.clk}
	rep := a.Run()
	if rep.OK() {
		t.Fatal("dead mapped object not detected")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Rule == "vm.ref" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected vm.ref violation, got:\n%s", rep)
	}
}

func TestWatchdogCadence(t *testing.T) {
	w, _ := busyWorld(t)
	a := &Auditor{Store: w.store, O: w.o, Clk: w.clk}
	wd := &Watchdog{A: a, Interval: 10 * time.Millisecond}

	if _, ran := wd.MaybeRun(w.clk.Now()); !ran {
		t.Fatal("first pass must run")
	}
	if _, ran := wd.MaybeRun(w.clk.Now()); ran {
		t.Fatal("second pass ran before the interval elapsed")
	}
	w.clk.Advance(11 * time.Millisecond)
	rep, ran := wd.MaybeRun(w.clk.Now())
	if !ran {
		t.Fatal("pass did not run after the interval")
	}
	if !rep.OK() {
		t.Fatalf("watchdog pass failed:\n%s", rep)
	}
	if wd.Runs() != 2 {
		t.Fatalf("runs = %d, want 2", wd.Runs())
	}
}

func TestReportString(t *testing.T) {
	rep := Report{Rules: 3, Objects: 7}
	if !strings.Contains(rep.String(), "ok") {
		t.Fatalf("clean report string: %q", rep.String())
	}
	rep.Violations = append(rep.Violations, Violation{Rule: "vm.ref", Detail: "boom"})
	s := rep.String()
	if !strings.Contains(s, "vm.ref: boom") {
		t.Fatalf("violation not rendered: %q", s)
	}
}

// TestCaptureRuleComparesStoreWithKernel: the sls.capture family re-encodes
// every object the checkpoint's generation gate would skip and compares it
// with the store. A clean system passes. The fields a record is built from
// are writable only through kern calls that bump (the planted missing bumps
// live in internal/sls, which can reach the gate's table), so here it is the
// store's copy that is made to differ: an unchanged pipe whose record says
// otherwise is reported, and the pass itself moves neither the clock nor the
// OID allocator.
func TestCaptureRuleComparesStoreWithKernel(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}
	_, wfd, err := p.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Checkpoint(sls.CkptIncremental); err != nil {
		t.Fatal(err)
	}
	a := &Auditor{Store: w.store, K: w.k, O: w.o, Clk: w.clk}
	if rep := a.Run(); !rep.OK() {
		t.Fatalf("clean system: %s", rep)
	}

	var pipeOID objstore.OID
	for _, oid := range w.store.Objects() {
		if ut, _ := w.store.UType(oid); ut == sls.UTPipe {
			pipeOID = oid
		}
	}
	stale := rec.NewEncoder()
	stale.Bytes([]byte("never written"))
	stale.U32(1)
	stale.U32(1)
	if err := w.store.PutRecord(pipeOID, sls.UTPipe, stale.Seal()); err != nil {
		t.Fatal(err)
	}
	now, next := w.clk.Now(), w.store.NewOID()
	rep := a.Run()
	if len(rep.Violations) != 1 || rep.Violations[0].Rule != "sls.capture" ||
		!strings.Contains(rep.Violations[0].Detail, "*kern.Pipe") {
		t.Fatalf("want one sls.capture violation naming the pipe, got:\n%s", rep)
	}
	if w.clk.Now() != now || w.store.NewOID() != next+1 {
		t.Fatalf("the audit pass advanced the clock (%v -> %v) or allocated an OID", now, w.clk.Now())
	}

	// A write moves the pipe's generation, so it is no longer an object the
	// gate would skip: the rule has nothing to say about it, and the next
	// checkpoint captures it over the stale record.
	if _, err := p.Write(wfd, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if rep := a.Run(); !rep.OK() {
		t.Fatalf("after a bumping write: %s", rep)
	}
	if _, err := g.Checkpoint(sls.CkptIncremental); err != nil {
		t.Fatal(err)
	}
	if rep := a.Run(); !rep.OK() {
		t.Fatalf("after the re-capture: %s", rep)
	}
}

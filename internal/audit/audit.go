// Package audit is the invariant watchdog: it walks the live object graph
// — VM shadow chains, page tables, kernel descriptor tables, the object
// store's allocation maps, SLS group and replication epochs — and reports
// every cross-layer invariant that does not hold. The same auditor runs
// two ways: on demand (`sls inspect`) and as the post-restore self-check.
// A healthy system reports zero violations after any sequence of
// checkpoints, crashes, restores, and replication syncs; a violation means a
// bookkeeping bug, and is worth a flight-recorder event and a counter, never
// a panic — the auditor observes, it does not repair.
package audit

import (
	"fmt"

	"aurora/internal/clock"
	"aurora/internal/flight"
	"aurora/internal/kern"
	"aurora/internal/objstore"
	"aurora/internal/sls"
	"aurora/internal/telemetry"
	"aurora/internal/trace"
	"aurora/internal/vm"
)

// maxChain bounds shadow-chain walks: a chain longer than this is either a
// cycle (the walk would never end) or a collapse-logic bug; both are
// violations, not reasons to hang the auditor.
const maxChain = 1 << 16

// Violation is one broken invariant.
type Violation struct {
	Rule   string `json:"rule"`   // which invariant family (e.g. "vm.chain")
	Detail string `json:"detail"` // what exactly is wrong, with identities
}

func (v Violation) String() string { return v.Rule + ": " + v.Detail }

// Report is the outcome of one audit pass.
type Report struct {
	At         int64       `json:"at_ns"`   // virtual time of the pass
	Rules      int         `json:"rules"`   // rule families evaluated
	Objects    int         `json:"objects"` // graph nodes visited (procs+files+vm objects)
	Violations []Violation `json:"violations"`
}

// OK reports whether the pass found nothing wrong.
func (r Report) OK() bool { return len(r.Violations) == 0 }

func (r Report) String() string {
	if r.OK() {
		return fmt.Sprintf("audit: ok (%d rules, %d objects)", r.Rules, r.Objects)
	}
	s := fmt.Sprintf("audit: %d violation(s) (%d rules, %d objects)", len(r.Violations), r.Rules, r.Objects)
	for _, v := range r.Violations {
		s += "\n  " + v.String()
	}
	return s
}

// Auditor checks the live system. Store is required; every other field is
// optional, and an absent layer is skipped: a machine sets them all, and
// audit's own tests build store-only auditors.
type Auditor struct {
	Store *objstore.Store
	O     *sls.Orchestrator
	Fl    *flight.Recorder // violations become EvAuditViolation events
	Tr    *trace.Tracer    // audit.runs / audit.violations / slo.breaches counters
	Clk   clock.Clock

	// SLO enables the telemetry cross-checks (the sls.slo family): when a
	// machine runs an SLO watch, its breach log, the observer's
	// slo.breaches counter, and the breaches themselves must agree.
	SLO *telemetry.Watch

	// Memory between passes: epochs must only move forward.
	lastStoreEpoch objstore.Epoch
	lastGroupEpoch map[string]objstore.Epoch
}

// Run executes every applicable rule family once and returns the report.
func (a *Auditor) Run() Report {
	var r Report
	if a.Clk != nil {
		r.At = int64(a.Clk.Now())
	}
	add := func(rule, format string, args ...any) {
		r.Violations = append(r.Violations, Violation{Rule: rule, Detail: fmt.Sprintf(format, args...)})
	}

	if a.Store != nil {
		r.Rules++
		for _, p := range a.Store.AuditLive() {
			add("store", "%s", p)
		}
		r.Rules++
		if ep := a.Store.Epoch(); ep < a.lastStoreEpoch {
			add("store.epoch", "store epoch moved backwards: %d -> %d", a.lastStoreEpoch, ep)
		} else {
			a.lastStoreEpoch = ep
		}
	}
	if a.O != nil {
		for _, g := range a.O.Groups() {
			a.auditGroup(&r, g, add)
		}
	}
	if a.SLO != nil {
		a.auditSLO(&r, add)
	}

	if a.Tr != nil {
		a.Tr.Count("audit.runs", 1)
		if n := int64(len(r.Violations)); n > 0 {
			a.Tr.Count("audit.violations", n)
		}
	}
	if a.Fl != nil {
		for _, v := range r.Violations {
			a.Fl.Record(r.At, flight.EvAuditViolation, 0, 0, 0, v.String())
		}
	}
	return r
}

// auditSLO cross-checks the SLO engine's bookkeeping (the sls.slo rule
// family): every recorded breach must actually violate its own bound —
// a breach that does not means the engine mis-fired — and when an
// observer is attached, its slo.breaches counter must equal the watch's
// breach log, so a lost or double-counted breach cannot hide.
func (a *Auditor) auditSLO(r *Report, add func(rule, format string, args ...any)) {
	r.Rules++
	breaches := a.SLO.Breaches()
	r.Objects += len(breaches)
	if a.Tr != nil {
		if c := a.Tr.CounterValue("slo.breaches"); c != int64(len(breaches)) {
			add("sls.slo", "slo.breaches counter %d disagrees with breach log length %d", c, len(breaches))
		}
	}
	for _, b := range breaches {
		if b.SLOKind().Holds(b.Value, b.Bound) {
			add("sls.slo", "breach %q recorded but value %d does not violate %s bound %d",
				b.SLO, b.Value, b.Kind, b.Bound)
		}
	}
}

// auditGroup checks one consistency group: its epochs against the store and
// the watchdog's memory, then the VM and kernel state of its processes.
func (a *Auditor) auditGroup(r *Report, g *sls.Group, add func(rule, format string, args ...any)) {
	r.Rules++
	if a.lastGroupEpoch == nil {
		a.lastGroupEpoch = make(map[string]objstore.Epoch)
	}
	ep := g.Epoch()
	if a.Store != nil && ep > a.Store.Epoch() {
		add("sls.epoch", "group %q epoch %d ahead of store epoch %d", g.Name, ep, a.Store.Epoch())
	}
	if last, seen := a.lastGroupEpoch[g.Name]; seen && ep < last {
		add("sls.epoch", "group %q epoch moved backwards: %d -> %d", g.Name, last, ep)
	} else {
		a.lastGroupEpoch[g.Name] = ep
	}
	if g.Checkpoints() < 0 {
		add("sls.epoch", "group %q negative checkpoint count %d", g.Name, g.Checkpoints())
	}

	procs := g.Procs()
	r.Objects += len(procs)

	// Kernel rules need the cross-process view: a File's reference count
	// covers every descriptor table slot holding it, across all processes.
	r.Rules++
	// fileSlots is keyed by pointer; iterating the map directly would make
	// violation order run-dependent when several files trip a rule, so the
	// report walks files in first-encounter (proc, then fd) order.
	fileSlots := make(map[*kern.File]int)
	var fileOrder []*kern.File
	for _, p := range procs {
		if p.Exited() {
			continue
		}
		p.FDs.Each(func(fd int, f *kern.File) {
			if fileSlots[f] == 0 {
				fileOrder = append(fileOrder, f)
			}
			fileSlots[f]++
			r.Objects++
		})
	}
	for _, f := range fileOrder {
		slots := fileSlots[f]
		if refs := int(f.Refs()); refs < slots {
			add("kern.fd", "file with %d refs held by %d descriptor slots", refs, slots)
		}
		obj, aux := f.Behind()
		switch o := obj.(type) {
		case *kern.Pipe:
			readers, writers := o.PipeRefs()
			if aux == 1 && writers < 1 {
				add("kern.pipe", "write end open but writersRef=%d", writers)
			}
			if aux == 0 && readers < 1 {
				add("kern.pipe", "read end open but readersRef=%d", readers)
			}
		case *kern.Socket:
			if peer := o.Peer(); peer != nil && peer.Peer() != o {
				add("kern.socket", "socket peer link not reciprocal")
			}
		}
	}

	// Capture rule: an object the checkpoint's generation gate would skip
	// must already be in the store exactly as a fresh serialization has it —
	// the oracle for "every mutation bumps its object's generation".
	r.Rules++
	r.Objects += g.AuditCapture(func(oid objstore.OID, detail string) {
		add("sls.capture", "group %q object %d: %s", g.Name, oid, detail)
	})

	// VM rules: every mapped object must be alive and referenced; shadow
	// chains must terminate; dirty PTEs must be writable and point at live
	// objects.
	r.Rules++
	for _, p := range procs {
		if p.Exited() || p.Mem == nil {
			continue
		}
		for _, e := range p.Mem.Entries() {
			if e.Obj == nil {
				add("vm.entry", "proc %d entry [%#x,%#x) has nil object", p.LocalPID, e.Start, e.End)
				continue
			}
			r.Objects++
			if e.Obj.Dead() {
				add("vm.ref", "proc %d entry [%#x,%#x) maps a dead object %d", p.LocalPID, e.Start, e.End, e.Obj.ID)
			}
			if rc := e.Obj.RefCount(); rc < 1 {
				add("vm.ref", "proc %d entry [%#x,%#x) object %d refcount %d", p.LocalPID, e.Start, e.End, e.Obj.ID, rc)
			}
			a.auditChain(r, p, e.Obj, add)
		}
		p.Mem.AuditPTEs(func(va uint64, pte vm.PTE, obj *vm.Object) {
			if pte.Page == nil {
				add("vm.pte", "proc %d pte %#x has nil page", p.LocalPID, va)
			}
			if pte.Dirty && !pte.Writable {
				add("vm.pte", "proc %d pte %#x dirty but not writable", p.LocalPID, va)
			}
			if obj != nil && obj.Dead() {
				add("vm.pte", "proc %d pte %#x installed from dead object %d", p.LocalPID, va, obj.ID)
			}
		})
	}
}

// auditChain walks one shadow chain: it must terminate (no cycles), and
// every link except the top must report at least one shadow — the link
// above it.
func (a *Auditor) auditChain(r *Report, p *kern.Proc, top *vm.Object, add func(rule, format string, args ...any)) {
	depth := 0
	for o := top; o != nil; o = o.Backer() {
		depth++
		if depth > maxChain {
			add("vm.chain", "proc %d object %d: shadow chain exceeds %d links (cycle?)", p.LocalPID, top.ID, maxChain)
			return
		}
		if o != top {
			r.Objects++
			if o.ShadowCount() < 1 {
				add("vm.chain", "proc %d object %d backs object(s) but shadow count is %d", p.LocalPID, o.ID, o.ShadowCount())
			}
			if o.Dead() {
				add("vm.chain", "proc %d dead object %d still in a shadow chain", p.LocalPID, o.ID)
			}
		}
	}
}

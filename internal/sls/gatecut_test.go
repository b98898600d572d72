package sls

// The gated cut against the full walk, and the arming that makes skipping an
// unchanged object free. A seeded random syscall mix — sockets, SCM_RIGHTS,
// pipes, dup, close, fork, exit, kqueue, pty, lseek — runs over two groups and
// an outside process, with incremental, WAL, full, mem-only and failed
// checkpoints interleaved. After every cut an uncharged full walk of what the
// group's processes reach now must find each gated object held in the store
// exactly as a fresh encoding puts it (the same records), and after every
// committed cut the group must count live exactly the objects reached and have
// deleted the ones it dropped (the same live set and gone list). Before every
// cut each object a group trusts at its present generation must be armed, and
// one that moved since must not (checkArms): otherwise a mutation went
// unpaid, or will. Two planted bugs — a mutation that counts
// without paying, and a commit that leaves a capture unarmed — must each fail
// it.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"aurora/internal/kern"
	"aurora/internal/objstore"
	"aurora/internal/rec"
	"aurora/internal/vm"
)

// fullWalk is the oracle: it walks every table of the group from scratch,
// independently of the serializer, reading objects and charging nothing, and
// returns the gated objects reached.
func fullWalk(g *Group) map[any]bool {
	reached := make(map[any]bool)
	var visit func(obj any)
	visit = func(obj any) {
		if obj == nil || reached[obj] {
			return
		}
		reached[obj] = true
		switch o := obj.(type) {
		case *kern.File:
			impl, _ := o.Behind()
			visit(impl)
		case *kern.Socket:
			if peer := o.Peer(); peer != nil && peer.OwnerGroup == g.ID {
				visit(peer)
			}
			for _, f := range o.InFlightFiles() {
				visit(f)
			}
		}
	}
	for _, p := range g.Procs() {
		if !p.Exited() && !p.Ephemeral {
			p.FDs.Each(func(_ int, f *kern.File) { visit(f) })
		}
	}
	for obj := range reached {
		if _, ok := obj.(generational); !ok {
			delete(reached, obj)
		}
	}
	return reached
}

// checkCut holds the cut g just took to the oracle. committed says the cut
// committed; before is the gated part of the live set before it.
func checkCut(g *Group, committed bool, before map[objstore.OID]bool) error {
	var e rec.Encoder
	want := make(map[objstore.OID]bool)
	for obj := range fullWalk(g) {
		oid := g.oidOf(obj)
		if oid == 0 {
			return fmt.Errorf("%T reached but never given an OID", obj)
		}
		want[oid] = true
		e.Reset()
		utype := g.encodeObject(&e, obj.(generational))
		if fresh := e.Seal(); !g.o.Store.HoldsRecord(oid, utype, fresh) {
			got, err := g.o.Store.GetRecord(oid)
			if ut, _ := g.o.Store.UType(oid); err != nil || ut != utype || string(got) != string(fresh) {
				return fmt.Errorf("object %d (%T): the store holds %d bytes (err %v), a full walk puts %d", oid, obj, len(got), err, len(fresh))
			}
		}
	}
	if !committed {
		return nil
	}
	if got := gatedLive(g); !sameOIDs(got, want) {
		return fmt.Errorf("live gated objects %v, a full walk reaches %v", sortedOIDs(got), sortedOIDs(want))
	}
	for oid := range before {
		if !want[oid] && g.o.Store.Exists(oid) {
			return fmt.Errorf("object %d left the cut but was not deleted", oid)
		}
	}
	return nil
}

// checkArms holds the groups' gates to the arming rule (kern's gen): an object
// some group trusts at its present generation is armed, so its next mutation
// pays for marking it changed; an object one group alone has reached, trusted
// at a generation it has since left, is unarmed, so that move was paid for.
// (A shared object may be armed again by the other group's commit.) reached
// holds, per object, the groups whose tables have held it, to which checkArms
// adds what they hold now: a group's table forgets what leaves its cut, a
// commit's arming does not.
func checkArms(groups []*Group, reached map[any]map[*Group]bool) error {
	for _, g := range groups {
		noteReached(g, reached)
	}
	for _, g := range groups {
		for key, c := range g.ents {
			obj, ok := key.(generational)
			if !ok || !c.trusted {
				continue
			}
			switch moved := obj.Generation() != c.gen; {
			case !moved && !obj.Armed():
				return fmt.Errorf("group %s trusts object %d (%T) at generation %d, unarmed", g.Name, c.oid, obj, c.gen)
			case moved && obj.Armed() && len(reached[obj]) == 1:
				return fmt.Errorf("object %d (%T) moved from generation %d to %d and is still armed: a mutation did not pay",
					c.oid, obj, c.gen, obj.Generation())
			}
		}
	}
	return nil
}

// noteReached adds what g's table holds to reached.
func noteReached(g *Group, reached map[any]map[*Group]bool) {
	for key := range g.ents {
		if reached[key] == nil {
			reached[key] = make(map[*Group]bool)
		}
		reached[key][g] = true
	}
}

// gatedLive is the part of the group's live set that tables reach: the OIDs
// of gated objects.
func gatedLive(g *Group) map[objstore.OID]bool {
	out := make(map[objstore.OID]bool)
	for key, e := range g.ents {
		if _, ok := key.(generational); ok && e.live {
			out[e.oid] = true
		}
	}
	return out
}

func sameOIDs(a, b map[objstore.OID]bool) bool {
	return slices.Equal(sortedOIDs(a), sortedOIDs(b))
}

func sortedOIDs(m map[objstore.OID]bool) []objstore.OID {
	var out []objstore.OID
	for oid := range m {
		out = append(out, oid)
	}
	slices.Sort(out)
	return out
}

// mixWorld is one seeded run of the syscall mix.
type mixWorld struct {
	t      *testing.T
	rng    *rand.Rand
	w      *world
	dev    *failOnceDev
	groups []*Group
	procs  []*kern.Proc // every process the mix drives, roots first
	roots  map[*kern.Proc]bool
	lfd    map[*kern.Proc]int // the roots' listeners
	addrs  []string
	pages  map[*kern.Proc]uint64
	// reached: for checkArms, every group whose table has held each object.
	reached map[any]map[*Group]bool
}

const nonblock = kern.ORead | kern.OWrite | kern.ONonblock

func newMixWorld(t *testing.T, seed int64) *mixWorld {
	t.Helper()
	m := &mixWorld{t: t, rng: rand.New(rand.NewSource(seed)), roots: make(map[*kern.Proc]bool),
		lfd: make(map[*kern.Proc]int), pages: make(map[*kern.Proc]uint64), reached: make(map[any]map[*Group]bool)}
	w, err := newWorldOn(func(d objstore.BlockDev) objstore.BlockDev {
		m.dev = &failOnceDev{BlockDev: d}
		return m.dev
	})
	if err != nil {
		t.Fatal(err)
	}
	m.w = w
	for i, name := range []string{"a", "b", "outside"} {
		p := w.k.NewProc(name)
		if i < 2 {
			g := w.o.CreateGroup(name)
			if err := g.Attach(p); err != nil {
				t.Fatal(err)
			}
			m.groups = append(m.groups, g)
		}
		va, err := p.Mmap(vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
		if err != nil {
			t.Fatal(err)
		}
		m.pages[p] = va
		lfd, _ := p.Socket(kern.KindSocketUnix)
		addr := "/sock/" + name
		if err := p.Bind(lfd, addr); err != nil {
			t.Fatal(err)
		}
		p.Listen(lfd)
		p.SetFlags(lfd, nonblock)
		m.procs = append(m.procs, p)
		m.roots[p], m.lfd[p] = true, lfd
		m.addrs = append(m.addrs, addr)
	}
	return m
}

// fds lists p's open descriptors.
func fds(p *kern.Proc) []int {
	var out []int
	p.FDs.Each(func(fd int, _ *kern.File) { out = append(out, fd) })
	return out
}

func (m *mixWorld) live() []*kern.Proc {
	var out []*kern.Proc
	for _, p := range m.procs {
		if !p.Exited() {
			out = append(out, p)
		}
	}
	return out
}

// anyFD picks one of p's descriptors behind which sits a T, or -1.
func anyFD[T any](m *mixWorld, p *kern.Proc) int {
	var pick []int
	p.FDs.Each(func(fd int, f *kern.File) {
		if obj, _ := f.Behind(); obj != nil {
			if _, ok := obj.(T); ok && fd != m.lfd[p] {
				pick = append(pick, fd)
			}
		}
	})
	if len(pick) == 0 {
		return -1
	}
	return pick[m.rng.Intn(len(pick))]
}

// step runs one random syscall. Errors are part of the mix (a closed peer, a
// full or empty queue) and are ignored; every descriptor is non-blocking.
func (m *mixWorld) step() {
	procs := m.live()
	p := procs[m.rng.Intn(len(procs))]
	all := fds(p)
	some := func() int {
		if len(all) == 0 {
			return -1
		}
		return all[m.rng.Intn(len(all))]
	}
	data := []byte(fmt.Sprintf("m%d", m.rng.Intn(1000)))
	buf := make([]byte, 1+m.rng.Intn(8))
	switch m.rng.Intn(17) {
	case 0:
		fd, _ := p.Open(fmt.Sprintf("/f%d", m.rng.Intn(3)), kern.ORead|kern.OWrite, true)
		p.Write(fd, data)
	case 1:
		p.Write(some(), data)
	case 2:
		p.Read(some(), buf)
	case 3:
		p.Lseek(some(), int64(m.rng.Intn(64)))
	case 4:
		r, w, _ := p.Pipe()
		p.SetFlags(r, kern.ORead|kern.ONonblock)
		p.SetFlags(w, kern.OWrite|kern.ONonblock)
	case 5:
		c, _ := p.Socket(kern.KindSocketUnix)
		p.SetFlags(c, nonblock)
		i := m.rng.Intn(len(m.addrs))
		if p.Connect(c, m.addrs[i]) == nil {
			srv := m.procs[i]
			if a, err := srv.Accept(m.lfd[srv]); err == nil {
				srv.SetFlags(a, nonblock)
			}
		}
	case 6:
		if s, f := anyFD[*kern.Socket](m, p), some(); s >= 0 && f >= 0 {
			p.SendFDs(s, data, []int{f})
		}
	case 7:
		if s := anyFD[*kern.Socket](m, p); s >= 0 {
			p.RecvFDs(s, buf)
		}
	case 8:
		p.Dup(some())
	case 9:
		if fd := some(); fd != m.lfd[p] || !m.roots[p] {
			p.Close(fd)
		}
	case 10:
		if p.GroupID != 0 && len(procs) < 8 {
			m.procs = append(m.procs, p.Fork())
		}
	case 11:
		if !m.roots[p] {
			p.Exit(0)
		}
	case 12:
		if fd := anyFD[*kern.Kqueue](m, p); fd >= 0 && m.rng.Intn(2) == 0 {
			p.KeventAdd(fd, kern.Kevent{Ident: uint64(m.rng.Intn(100)), Filter: kern.FilterUser})
		} else {
			p.Kqueue()
		}
	case 13:
		if fd := anyFD[*kern.PTY](m, p); fd >= 0 && m.rng.Intn(2) == 0 {
			p.SetTermios(fd, [64]byte{byte(m.rng.Intn(256))})
		} else if mfd, sfd, err := p.OpenPTY(); err == nil {
			p.SetFlags(mfd, nonblock)
			p.SetFlags(sfd, nonblock)
		}
	case 14:
		if fd := anyFD[*kern.Socket](m, p); fd >= 0 {
			p.SetSockOpt(fd, uint32(m.rng.Intn(4)))
		}
	case 15:
		p.SetFlags(some(), nonblock|m.rng.Intn(2)*kern.OAppend)
	case 16:
		if va, ok := m.pages[p]; ok {
			p.WriteMem(va, data)
		}
	}
}

// cut takes one random kind of checkpoint of g and holds it to the oracle.
func (m *mixWorld) cut(g *Group) error {
	kinds := []CheckpointKind{CkptIncremental, CkptIncremental, CkptIncremental, CkptWAL, CkptFull, CkptMemOnly}
	kind := kinds[m.rng.Intn(len(kinds))]
	fail := m.rng.Intn(8) == 0
	if fail {
		for _, p := range g.Procs() {
			if va, ok := m.pages[p]; ok && !p.Exited() {
				p.WriteMem(va, []byte{1}) // a page for the flush to fail on
			}
		}
		kind, m.dev.armed = CkptIncremental, true
	}
	if err := checkArms(m.groups, m.reached); err != nil {
		return err
	}
	before := gatedLive(g)
	_, err := g.Checkpoint(kind)
	m.dev.armed = false
	noteReached(g, m.reached)
	switch {
	case err != nil && !(fail && errors.Is(err, errFlushFailed)):
		return fmt.Errorf("%v checkpoint: %w", kind, err)
	case err != nil:
		return nil // a failed cut is held to the oracle by the next one
	}
	return checkCut(g, kind != CkptMemOnly, before)
}

// run drives the mix through the given number of cuts, each of a random
// group, holding every one to the oracle.
func (m *mixWorld) run(cuts int) error {
	for n := 0; n < cuts; n++ {
		for i := m.rng.Intn(12); i >= 0; i-- {
			m.step()
		}
		g := m.groups[m.rng.Intn(len(m.groups))]
		if err := m.cut(g); err != nil {
			return fmt.Errorf("cut %d of group %s: %w", n, g.Name, err)
		}
		if m.rng.Intn(4) == 0 {
			g.Barrier() // releases externally-synchronized sends
		}
	}
	return nil
}

func TestGatedCutEqualsFullWalk(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		if err := newMixWorld(t, seed).run(40); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestGatedCutPlantedBugsAreCaught plants each arming bug into a trusted
// description after a clean stretch of the mix, and requires the oracle to
// fail the next cut.
func TestGatedCutPlantedBugsAreCaught(t *testing.T) {
	plants := map[string]func(g *Group, f *kern.File){
		// A count with no charge leaves the object armed past its move.
		"a mutation that counts without paying": func(g *Group, f *kern.File) { f.Arm() },
		// The commit captured the move but did not arm the capture.
		"a commit that leaves a capture unarmed": func(g *Group, f *kern.File) {
			oid := g.oidOf(f)
			var e rec.Encoder
			utype := g.encodeObject(&e, f)
			if err := g.o.Store.PutRecord(oid, utype, e.Seal()); err != nil {
				t.Fatal(err)
			}
			g.trust(f)
			var reports int
			g.AuditCapture(func(objstore.OID, string) { reports++ })
			if reports != 1 {
				t.Fatalf("AuditCapture reported %d objects, want the unarmed one", reports)
			}
		},
	}
	for name, plant := range plants {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 10; seed++ {
				m := newMixWorld(t, seed)
				if err := m.run(10); err != nil {
					t.Fatalf("seed %d before the plant: %v", seed, err)
				}
				g, p := m.groups[0], m.procs[0]
				fd, err := p.Open("/planted", kern.ORead|kern.OWrite, true)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := g.Checkpoint(CkptIncremental); err != nil {
					t.Fatal(err)
				}
				f, _ := p.FDs.Get(fd)
				if !f.Armed() {
					t.Fatalf("seed %d: a committed capture is unarmed", seed)
				}
				p.Lseek(fd, 17)
				plant(g, f)
				if m.cut(g) == nil {
					t.Fatalf("seed %d: the oracle missed it", seed)
				}
			}
		})
	}
}

// TestSerializeTimeIgnoresIdleSockets: a checkpoint's serialize time does not
// grow with the idle sockets a process holds. Servers with 16 and 576 idle
// connections, checkpointed incrementally with nothing touched: from the
// second checkpoint on, their OSTime differs by exactly the per-word charge of
// the longer descriptor table in the process record, which is always
// captured. Not one idle socket or description charges the stop.
func TestSerializeTimeIgnoresIdleSockets(t *testing.T) {
	serialize := func(conns int) ([]time.Duration, time.Duration) {
		w, g := idleServer(t, conns)
		var times []time.Duration
		for i := 0; i < 3; i++ {
			st, err := g.Checkpoint(CkptIncremental)
			if err != nil {
				t.Fatal(err)
			}
			if want := 2*(conns+1) + 2; st.Objects != want { // descriptions, sockets, process, group
				t.Fatalf("%d connections: the cut holds %d objects, want %d", conns, st.Objects, want)
			}
			times = append(times, st.OSTime)
		}
		var procRec []byte
		for key, e := range g.ents {
			if _, ok := key.(*kern.Proc); ok {
				procRec, _ = w.store.GetRecord(e.oid)
			}
		}
		return times, time.Duration(len(procRec)/8) * w.costs.SerializePerWord
	}
	small, smallWords := serialize(16)
	big, bigWords := serialize(576)
	for i := range big {
		if gap := big[i] - small[i]; gap != bigWords-smallWords {
			t.Fatalf("checkpoint %d: 576 idle sockets serialize in %v, 16 in %v: a gap of %v, want the process record's %v",
				i+2, big[i], small[i], gap, bigWords-smallWords)
		}
	}
}

// TestDescriptionInItsOwnPeersQueueCountsOnce: a description sent over its own
// socket waits in the peer's queue, so the walk meets it again inside its own
// visit; it is put and counted once.
func TestDescriptionInItsOwnPeersQueueCountsOnce(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("p")
	g := w.o.CreateGroup("self")
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}
	lfd, _ := p.Socket(kern.KindSocketUnix)
	if err := p.Bind(lfd, "/sock/self"); err != nil {
		t.Fatal(err)
	}
	p.Listen(lfd)
	cfd, _ := p.Socket(kern.KindSocketUnix)
	if err := p.Connect(cfd, "/sock/self"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Accept(lfd); err != nil {
		t.Fatal(err)
	}
	if err := p.SendFDs(cfd, []byte("me"), []int{cfd}); err != nil {
		t.Fatal(err)
	}
	st, err := g.Checkpoint(CkptIncremental)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*3 + 2; st.Objects != want || st.Captured != want { // descriptions, sockets, process, group
		t.Fatalf("the cut holds %d objects, %d captured; want %d each", st.Objects, st.Captured, want)
	}
}

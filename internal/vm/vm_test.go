package vm

import (
	"bytes"
	"testing"
	"testing/quick"

	"aurora/internal/clock"
	"aurora/internal/mem"
)

func newSys() *System {
	return NewSystem(mem.New(0), clock.NewVirtual(), clock.DefaultCosts())
}

func TestMapWriteRead(t *testing.T) {
	sys := newSys()
	m := sys.NewMap()
	obj := sys.NewObject(Anonymous, 1<<20)
	va, err := m.Map(obj, 0, 1<<20, ProtRead|ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("hello through the mmu")
	if err := m.Write(va+100, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := m.Read(va+100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q", got)
	}
}

func TestWriteSpanningPages(t *testing.T) {
	sys := newSys()
	m := sys.NewMap()
	obj := sys.NewObject(Anonymous, 1<<20)
	va, _ := m.Map(obj, 0, 1<<20, ProtRead|ProtWrite, false)
	buf := make([]byte, 3*PageSize)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	if err := m.Write(va+PageSize-7, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(buf))
	if err := m.Read(va+PageSize-7, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("page-spanning write corrupted")
	}
}

func TestSegfault(t *testing.T) {
	sys := newSys()
	m := sys.NewMap()
	if err := m.Write(0xdead000, []byte("x")); err == nil {
		t.Fatal("write to unmapped address succeeded")
	}
	if err := m.Read(0xdead000, make([]byte, 1)); err == nil {
		t.Fatal("read from unmapped address succeeded")
	}
}

func TestWriteProtection(t *testing.T) {
	sys := newSys()
	m := sys.NewMap()
	obj := sys.NewObject(Anonymous, PageSize)
	va, _ := m.Map(obj, 0, PageSize, ProtRead, false)
	if err := m.Write(va, []byte("x")); err == nil {
		t.Fatal("write to read-only mapping succeeded")
	}
	if err := m.Read(va, make([]byte, 1)); err != nil {
		t.Fatalf("read of read-only mapping failed: %v", err)
	}
}

func TestDirtyBitsTracked(t *testing.T) {
	sys := newSys()
	m := sys.NewMap()
	obj := sys.NewObject(Anonymous, 1<<20)
	va, _ := m.Map(obj, 0, 1<<20, ProtRead|ProtWrite, false)
	dirty := func() (n int) {
		m.AuditPTEs(func(_ uint64, pte PTE, _ *Object) {
			if pte.Dirty {
				n++
			}
		})
		return n
	}
	m.Read(va, make([]byte, PageSize)) // read fault only
	if got := dirty(); got != 0 {
		t.Fatalf("dirty after read = %d", got)
	}
	m.Write(va+4*PageSize, []byte("dirty"))
	if got := dirty(); got != 1 {
		t.Fatalf("dirty after one write = %d", got)
	}
}

func TestForkCopyOnWrite(t *testing.T) {
	sys := newSys()
	parent := sys.NewMap()
	obj := sys.NewObject(Anonymous, 1<<20)
	va, _ := parent.Map(obj, 0, 1<<20, ProtRead|ProtWrite, false)
	parent.Write(va, []byte("original"))

	child := parent.Fork()
	// Child sees the parent's data.
	got := make([]byte, 8)
	if err := child.Read(va, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "original" {
		t.Fatalf("child read %q", got)
	}
	// Child writes are private.
	child.Write(va, []byte("CHILDREN"))
	parent.Read(va, got)
	if string(got) != "original" {
		t.Fatalf("parent saw child write: %q", got)
	}
	child.Read(va, got)
	if string(got) != "CHILDREN" {
		t.Fatalf("child lost its write: %q", got)
	}
	// Parent writes are private too.
	parent.Write(va, []byte("PARENTAL"))
	child.Read(va, got)
	if string(got) != "CHILDREN" {
		t.Fatalf("child saw parent write: %q", got)
	}
}

func TestForkSharedMapping(t *testing.T) {
	sys := newSys()
	parent := sys.NewMap()
	obj := sys.NewObject(Anonymous, 1<<20)
	va, _ := parent.Map(obj, 0, 1<<20, ProtRead|ProtWrite, true)

	child := parent.Fork()
	parent.Write(va, []byte("shared!"))
	got := make([]byte, 7)
	child.Read(va, got)
	if string(got) != "shared!" {
		t.Fatalf("MAP_SHARED fork broke sharing: %q", got)
	}
	child.Write(va, []byte("back-at"))
	parent.Read(va, got)
	if string(got) != "back-at" {
		t.Fatalf("reverse sharing broken: %q", got)
	}
}

func TestForkChainsAndGrandchildren(t *testing.T) {
	sys := newSys()
	p := sys.NewMap()
	obj := sys.NewObject(Anonymous, 1<<20)
	va, _ := p.Map(obj, 0, 1<<20, ProtRead|ProtWrite, false)
	p.Write(va, []byte("gen0"))
	c := p.Fork()
	c.Write(va+PageSize, []byte("gen1"))
	g := c.Fork()
	got := make([]byte, 4)
	g.Read(va, got)
	if string(got) != "gen0" {
		t.Fatalf("grandchild lost gen0: %q", got)
	}
	g.Read(va+PageSize, got)
	if string(got) != "gen1" {
		t.Fatalf("grandchild lost gen1: %q", got)
	}
	g.Write(va, []byte("gen2"))
	c.Read(va, got)
	if string(got) != "gen0" {
		t.Fatalf("child saw grandchild write: %q", got)
	}
}

// pagerFunc adapts a function to the Pager interface.
type pagerFunc struct {
	fn  func(pg int64, p *mem.Page) error
	oid uint64
}

func (pf pagerFunc) PageIn(pg int64, p *mem.Page) error { return pf.fn(pg, p) }
func (pf pagerFunc) BackingOID() uint64                 { return pf.oid }

func TestPagerFillsMisses(t *testing.T) {
	sys := newSys()
	pager := pagerFunc{fn: func(pg int64, p *mem.Page) error {
		for i := range p.Data {
			p.Data[i] = byte(pg)
		}
		return nil
	}, oid: 42}
	obj := sys.NewPagedObject(Vnode, 1<<20, pager)
	m := sys.NewMap()
	va, _ := m.Map(obj, 0, 1<<20, ProtRead, true)
	got := make([]byte, 4)
	if err := m.Read(va+5*PageSize, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 {
		t.Fatalf("paged-in byte = %d, want 5", got[0])
	}
	if obj.Pager().BackingOID() != 42 {
		t.Fatal("pager identity lost")
	}
}

func TestPrivateFileMappingViaShadow(t *testing.T) {
	sys := newSys()
	pager := pagerFunc{fn: func(pg int64, p *mem.Page) error {
		copy(p.Data, []byte("filedata"))
		return nil
	}}
	file := sys.NewPagedObject(Vnode, 1<<20, pager)
	m := sys.NewMap()
	// MAP_PRIVATE: map a shadow of the file object.
	priv := sys.Shadow(file)
	va, _ := m.Map(priv, 0, 1<<20, ProtRead|ProtWrite, false)
	got := make([]byte, 8)
	m.Read(va, got)
	if string(got) != "filedata" {
		t.Fatalf("read through shadow: %q", got)
	}
	m.Write(va, []byte("PRIVATE!"))
	// The vnode object itself must be untouched.
	if file.Pages() != 1 {
		t.Fatalf("file object pages = %d, want 1 (clean read copy)", file.Pages())
	}
	p, owner := file.Lookup(0)
	if owner != file || !bytes.HasPrefix(p.Data, []byte("filedata")) {
		t.Fatal("file page modified by private write")
	}
}

func TestSystemShadowFreezesAndRedirects(t *testing.T) {
	sys := newSys()
	m := sys.NewMap()
	obj := sys.NewObject(Anonymous, 1<<20)
	va, _ := m.Map(obj, 0, 1<<20, ProtRead|ProtWrite, false)
	m.Write(va, []byte("before"))

	pairs := SystemShadow(sys, []*Map{m}, nil)
	if len(pairs) != 1 {
		t.Fatalf("pairs = %d, want 1", len(pairs))
	}
	frozen, live := pairs[0].Frozen, pairs[0].Live
	if frozen != obj {
		t.Fatal("frozen is not the original object")
	}

	// Writes after the shadow land in the live object, not the frozen one.
	m.Write(va, []byte("after!"))
	if frozen.Pages() != 1 {
		t.Fatalf("frozen gained/lost pages: %d", frozen.Pages())
	}
	p, owner := frozen.Lookup(0)
	if owner != frozen || !bytes.HasPrefix(p.Data, []byte("before")) {
		t.Fatalf("frozen page mutated: %q", p.Data[:6])
	}
	if live.Pages() != 1 {
		t.Fatalf("live pages = %d, want 1", live.Pages())
	}
	// Reads see the new data.
	got := make([]byte, 6)
	m.Read(va, got)
	if string(got) != "after!" {
		t.Fatalf("read after shadow: %q", got)
	}
}

func TestSystemShadowPreservesSharing(t *testing.T) {
	// Two processes share a writable region; after a system shadow they
	// must STILL share writes — the thing fork COW cannot do.
	sys := newSys()
	a, b := sys.NewMap(), sys.NewMap()
	shm := sys.NewObject(Anonymous, 1<<20)
	shm.Ref() // second mapping reference
	vaA, _ := a.Map(shm, 0, 1<<20, ProtRead|ProtWrite, true)
	vaB, _ := b.Map(shm, 0, 1<<20, ProtRead|ProtWrite, true)

	pairs := SystemShadow(sys, []*Map{a, b}, nil)
	if len(pairs) != 1 {
		t.Fatalf("pairs = %d, want 1 (one shadow for the shared object)", len(pairs))
	}
	a.Write(vaA, []byte("from-a"))
	got := make([]byte, 6)
	b.Read(vaB, got)
	if string(got) != "from-a" {
		t.Fatalf("sharing broken after system shadow: %q", got)
	}
	// And the frozen object did not absorb the write.
	if pairs[0].Frozen.Pages() != 0 {
		t.Fatalf("frozen absorbed post-shadow write")
	}
}

type testBackRef struct{ o *Object }

func (r *testBackRef) Object() *Object     { return r.o }
func (r *testBackRef) SetObject(o *Object) { r.o = o }

func TestSystemShadowUpdatesBackRefs(t *testing.T) {
	sys := newSys()
	m := sys.NewMap()
	shm := sys.NewObject(Anonymous, 1<<20)
	shm.Ref() // the backref's reference
	br := &testBackRef{o: shm}
	m.Map(shm, 0, 1<<20, ProtRead|ProtWrite, true)

	pairs := SystemShadow(sys, []*Map{m}, []BackRef{br})
	if br.Object() != pairs[0].Live {
		t.Fatal("backref not updated to the live shadow")
	}
	// A new mapping through the backref shares with the existing one.
	m2 := sys.NewMap()
	br.Object().Ref()
	va2, _ := m2.Map(br.Object(), 0, 1<<20, ProtRead|ProtWrite, true)
	m2.Write(va2, []byte("x"))
	if pairs[0].Live.Pages() != 1 {
		t.Fatal("write through refreshed backref missed the live shadow")
	}
}

func TestSystemShadowSkipsVnodeAndReadonly(t *testing.T) {
	sys := newSys()
	m := sys.NewMap()
	file := sys.NewPagedObject(Vnode, 1<<20, pagerFunc{fn: func(int64, *mem.Page) error { return nil }})
	ro := sys.NewObject(Anonymous, 1<<20)
	m.Map(file, 0, 1<<20, ProtRead|ProtWrite, true) // writable shared file: FS handles COW
	m.Map(ro, 0, 1<<20, ProtRead, false)            // read-only anonymous
	pairs := SystemShadow(sys, []*Map{m}, nil)
	if len(pairs) != 0 {
		t.Fatalf("pairs = %d, want 0", len(pairs))
	}
}

func TestCollapseAuroraMovesShadowPagesDown(t *testing.T) {
	sys := newSys()
	m := sys.NewMap()
	obj := sys.NewObject(Anonymous, 1<<20)
	va, _ := m.Map(obj, 0, 1<<20, ProtRead|ProtWrite, false)
	// Base content.
	m.Write(va, bytes.Repeat([]byte{1}, 4*PageSize))
	// Checkpoint 1 freezes base; writes land in S1.
	SystemShadow(sys, []*Map{m}, nil)
	m.Write(va+PageSize, []byte{2}) // dirties page 1 in S1
	// Checkpoint 2 freezes S1; writes land in S2.
	pairs := SystemShadow(sys, []*Map{m}, nil)
	s1 := pairs[0].Frozen
	s2 := pairs[0].Live
	if s1.Backer() != obj || s2.Backer() != s1 {
		t.Fatal("chain not s2->s1->base")
	}
	if got := s2.ChainLength(); got != 3 {
		t.Fatalf("chain length = %d, want 3", got)
	}

	// S1 flushed: collapse it into base, Aurora direction.
	moved := CollapseAurora(s2, s1)
	if moved != 1 {
		t.Fatalf("moved %d pages, want 1 (only the dirty page)", moved)
	}
	if s2.Backer() != obj {
		t.Fatal("chain not rewired to s2->base")
	}
	if got := s2.ChainLength(); got != 2 {
		t.Fatalf("chain length after collapse = %d, want 2", got)
	}
	// Data intact: page 0 = 1s (base), page 1 byte 0 = 2 (from S1).
	got := make([]byte, 1)
	m.Read(va, got)
	if got[0] != 1 {
		t.Fatalf("page0 = %d", got[0])
	}
	m.Read(va+PageSize, got)
	if got[0] != 2 {
		t.Fatalf("page1 = %d", got[0])
	}
}

func TestCollapseLegacyMovesParentPagesUp(t *testing.T) {
	sys := newSys()
	m := sys.NewMap()
	obj := sys.NewObject(Anonymous, 1<<20)
	va, _ := m.Map(obj, 0, 1<<20, ProtRead|ProtWrite, false)
	m.Write(va, bytes.Repeat([]byte{7}, 8*PageSize)) // 8 pages in base
	SystemShadow(sys, []*Map{m}, nil)
	m.Write(va, []byte{9}) // 1 page in S1 (overrides base page 0)
	pairs := SystemShadow(sys, []*Map{m}, nil)
	s1, s2 := pairs[0].Frozen, pairs[0].Live

	moved := CollapseLegacy(s2, s1)
	if moved != 8 {
		t.Fatalf("legacy collapse moved %d pages, want 8 (all of base)", moved)
	}
	// The shadow's newer version of page 0 must win.
	got := make([]byte, 1)
	m.Read(va, got)
	if got[0] != 9 {
		t.Fatalf("page0 = %d, want 9 (shadow version)", got[0])
	}
	m.Read(va+PageSize, got)
	if got[0] != 7 {
		t.Fatalf("page1 = %d, want 7", got[0])
	}
	if got := s2.ChainLength(); got != 2 {
		t.Fatalf("chain length = %d, want 2", got)
	}
}

func TestCollapseCostAsymmetry(t *testing.T) {
	// The reason Aurora reverses the collapse: with a large base and a
	// tiny dirty set, the reverse direction moves far fewer pages.
	build := func() (*System, *Map, uint64) {
		sys := newSys()
		m := sys.NewMap()
		obj := sys.NewObject(Anonymous, 4<<20)
		va, _ := m.Map(obj, 0, 4<<20, ProtRead|ProtWrite, false)
		m.Write(va, bytes.Repeat([]byte{1}, 512*PageSize))
		SystemShadow(sys, []*Map{m}, nil)
		m.Write(va, []byte{2}) // one dirty page
		return sys, m, va
	}
	sys, m, _ := build()
	pairs := SystemShadow(sys, []*Map{m}, nil)
	aurora := CollapseAurora(pairs[0].Live, pairs[0].Frozen)

	sys2, m2, _ := build()
	pairs2 := SystemShadow(sys2, []*Map{m2}, nil)
	legacy := CollapseLegacy(pairs2[0].Live, pairs2[0].Frozen)

	if aurora >= legacy {
		t.Fatalf("aurora moved %d, legacy moved %d; want aurora << legacy", aurora, legacy)
	}
	if aurora != 1 || legacy != 512 {
		t.Fatalf("aurora=%d legacy=%d, want 1 and 512", aurora, legacy)
	}
}

func TestUnmapReleasesObject(t *testing.T) {
	sys := newSys()
	m := sys.NewMap()
	obj := sys.NewObject(Anonymous, 1<<20)
	va, _ := m.Map(obj, 0, 1<<20, ProtRead|ProtWrite, false)
	m.Write(va, make([]byte, 16*PageSize))
	used := sys.PM.Used()
	if used != 16 {
		t.Fatalf("used = %d", used)
	}
	if err := m.Unmap(va); err != nil {
		t.Fatal(err)
	}
	if got := sys.PM.Used(); got != 0 {
		t.Fatalf("pages leaked after unmap: %d", got)
	}
	if err := m.Unmap(va); err == nil {
		t.Fatal("double unmap succeeded")
	}
}

func TestDestroyReleasesEverything(t *testing.T) {
	sys := newSys()
	m := sys.NewMap()
	for i := 0; i < 4; i++ {
		obj := sys.NewObject(Anonymous, 1<<20)
		va, _ := m.Map(obj, 0, 1<<20, ProtRead|ProtWrite, false)
		m.Write(va, make([]byte, 4*PageSize))
	}
	child := m.Fork()
	child.Destroy()
	m.Destroy()
	if got := sys.PM.Used(); got != 0 {
		t.Fatalf("pages leaked after destroy: %d", got)
	}
}

func TestMapAtOverlapRejected(t *testing.T) {
	sys := newSys()
	m := sys.NewMap()
	obj := sys.NewObject(Anonymous, 1<<20)
	if err := m.MapAt(0x1000, obj, 0, 1<<20, ProtRead|ProtWrite, false); err != nil {
		t.Fatal(err)
	}
	obj2 := sys.NewObject(Anonymous, 1<<20)
	if err := m.MapAt(0x2000, obj2, 0, 1<<20, ProtRead|ProtWrite, false); err == nil {
		t.Fatal("overlapping MapAt succeeded")
	}
	obj2.Deref()
}

// Property: after any fork tree and random writes, each address space reads
// back exactly what it last wrote (COW isolation), for private mappings.
func TestForkIsolationProperty(t *testing.T) {
	type op struct {
		Who  uint8 // which map
		Page uint8
		Val  byte
		Fork bool
	}
	f := func(ops []op) bool {
		sys := newSys()
		root := sys.NewMap()
		obj := sys.NewObject(Anonymous, 64*PageSize)
		va, _ := root.Map(obj, 0, 64*PageSize, ProtRead|ProtWrite, false)
		maps := []*Map{root}
		shadowState := []map[uint8]byte{{}}
		for _, o := range ops {
			who := int(o.Who) % len(maps)
			if o.Fork && len(maps) < 6 {
				maps = append(maps, maps[who].Fork())
				cp := make(map[uint8]byte, len(shadowState[who]))
				for k, v := range shadowState[who] {
					cp[k] = v
				}
				shadowState = append(shadowState, cp)
				continue
			}
			pg := o.Page % 64
			if err := maps[who].Write(va+uint64(pg)*PageSize, []byte{o.Val}); err != nil {
				return false
			}
			shadowState[who][pg] = o.Val
		}
		buf := make([]byte, 1)
		for i, m := range maps {
			for pg, want := range shadowState[i] {
				if err := m.Read(va+uint64(pg)*PageSize, buf); err != nil {
					return false
				}
				if buf[0] != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: repeated system shadow + collapse cycles never lose data and
// keep the chain bounded.
func TestShadowCollapseCycleProperty(t *testing.T) {
	f := func(writes []uint16, rounds uint8) bool {
		sys := newSys()
		m := sys.NewMap()
		obj := sys.NewObject(Anonymous, 64*PageSize)
		va, _ := m.Map(obj, 0, 64*PageSize, ProtRead|ProtWrite, false)
		want := map[int]byte{}
		var prevFrozen *Object
		n := int(rounds%5) + 2
		wi := 0
		for r := 0; r < n; r++ {
			// Some writes this interval.
			for k := 0; k < 3 && wi < len(writes); k++ {
				pg := int(writes[wi] % 64)
				val := byte(writes[wi] >> 8)
				if err := m.Write(va+uint64(pg)*PageSize, []byte{val}); err != nil {
					return false
				}
				want[pg] = val
				wi++
			}
			pairs := SystemShadow(sys, []*Map{m}, nil)
			if len(pairs) != 1 {
				return false
			}
			// Collapse the previous interval's frozen shadow ("flushed").
			// After this round's shadow, the chain is
			// Live -> Frozen -> prevFrozen -> base, so the object above
			// prevFrozen is this round's Frozen.
			if prevFrozen != nil && prevFrozen.Backer() != nil {
				CollapseAurora(pairs[0].Frozen, prevFrozen)
			}
			prevFrozen = pairs[0].Frozen
			cur := pairs[0].Live
			if cur.ChainLength() > 3 {
				return false
			}
			_ = cur
		}
		buf := make([]byte, 1)
		for pg, val := range want {
			if err := m.Read(va+uint64(pg)*PageSize, buf); err != nil {
				return false
			}
			if buf[0] != val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: no frame leaks — after any mix of maps, writes, forks, system
// shadows, collapses, and unmaps, destroying every address space returns
// physical memory to exactly zero frames in use.
func TestNoFrameLeaksProperty(t *testing.T) {
	type op struct {
		Kind uint8 // 0 write, 1 fork, 2 shadow, 3 collapse, 4 unmap+remap
		Who  uint8
		Page uint8
	}
	f := func(ops []op) bool {
		sys := newSys()
		root := sys.NewMap()
		obj := sys.NewObject(Anonymous, 64*PageSize)
		va, _ := root.Map(obj, 0, 64*PageSize, ProtRead|ProtWrite, false)
		maps := []*Map{root}
		var prev *Object
		for _, o := range ops {
			who := int(o.Who) % len(maps)
			switch o.Kind % 5 {
			case 0:
				maps[who].Write(va+uint64(o.Page%64)*PageSize, []byte{1}) //nolint:errcheck
			case 1:
				if len(maps) < 5 {
					maps = append(maps, maps[who].Fork())
				}
			case 2:
				pairs := SystemShadow(sys, maps, nil)
				if len(pairs) == 1 {
					if prev != nil && prev.Backer() != nil && prev.ShadowCount() == 1 && pairs[0].Frozen.Backer() == prev {
						CollapseAurora(pairs[0].Frozen, prev)
					}
					prev = pairs[0].Frozen
				} else {
					prev = nil
				}
			case 3:
				// covered by case 2's opportunistic collapse
			case 4:
				// Unmap and remap a fresh region in one map.
				extra := sys.NewObject(Anonymous, 4*PageSize)
				eva, err := maps[who].Map(extra, 0, 4*PageSize, ProtRead|ProtWrite, false)
				if err != nil {
					return false
				}
				maps[who].Write(eva, []byte{2}) //nolint:errcheck
				if err := maps[who].Unmap(eva); err != nil {
					return false
				}
			}
		}
		for _, m := range maps {
			m.Destroy()
		}
		return sys.PM.Used() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestEvictAndPageInViaPager(t *testing.T) {
	// Swap-out then fault back in through a pager: the unified data path
	// for checkpointing and swapping (§6 Memory Overcommitment).
	sys := newSys()
	backing := map[int64][]byte{}
	pager := pagerFunc{fn: func(pg int64, p *mem.Page) error {
		if d, ok := backing[pg]; ok {
			copy(p.Data, d)
		}
		return nil
	}}
	obj := sys.NewPagedObject(Anonymous, 1<<20, pager)
	m := sys.NewMap()
	va, _ := m.Map(obj, 0, 1<<20, ProtRead|ProtWrite, false)
	m.Write(va, []byte("swapped"))

	// Evict: write page content to "swap", remove from object and pmap.
	p, ok := obj.RemovePage(0)
	if !ok {
		t.Fatal("no page to evict")
	}
	backing[0] = append([]byte(nil), p.Data...)
	sys.PM.Free(p)
	m.InvalidateAll()

	got := make([]byte, 7)
	if err := m.Read(va, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "swapped" {
		t.Fatalf("after swap-in: %q", got)
	}
}

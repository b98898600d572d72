package sls

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"aurora/internal/kern"
	"aurora/internal/mem"
	"aurora/internal/objstore"
	"aurora/internal/trace"
	"aurora/internal/vm"
)

// A standby keeps the image its streams land resident (recvGroupState.image)
// and the restore that continues the group installs those pages unread. These
// tests hold the image to the cold restore it replaces: same memory, byte for
// byte, no frame leaked on any path, a page that fails its sum read back.

// warmApp is a replicated application with one of everything the image must
// follow: an anonymous region, a region the deltas unmap (its object is
// deleted), a journal and a shared-memory segment.
type warmApp struct {
	p               *kern.Proc
	g               *Group
	va, doomed, shm uint64
	j               *objstore.Journal
}

const warmPages = 64

func startWarmApp(t *testing.T, w *world) *warmApp {
	t.Helper()
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	g.Period = 0
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}
	a := &warmApp{p: p, g: g}
	var err error
	if a.va, err = p.Mmap(warmPages*vm.PageSize, vm.ProtRead|vm.ProtWrite, false); err != nil {
		t.Fatal(err)
	}
	if a.doomed, err = p.Mmap(8*vm.PageSize, vm.ProtRead|vm.ProtWrite, false); err != nil {
		t.Fatal(err)
	}
	fd, err := p.ShmOpen("/seg", 4*vm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if a.shm, err = p.MmapShm(fd, vm.ProtRead|vm.ProtWrite); err != nil {
		t.Fatal(err)
	}
	if a.j, err = g.Journal("wal", 1<<16); err != nil {
		t.Fatal(err)
	}
	a.round(t, 0)
	for pg := uint64(0); pg < 8; pg++ {
		if err := p.WriteMem(a.doomed+pg*vm.PageSize, []byte("doomed")); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// round rewrites a third of the region, a shm page, and appends to the journal.
func (a *warmApp) round(t *testing.T, i int) {
	t.Helper()
	for pg := uint64(i % 3); pg < warmPages; pg += 3 {
		if err := a.p.WriteMem(a.va+pg*vm.PageSize, fmt.Appendf(nil, "round %d page %d", i, pg)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.p.WriteMem(a.shm+uint64(i%4)*vm.PageSize, fmt.Appendf(nil, "shm round %d", i)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.j.Append(fmt.Appendf(nil, "entry %d", i)); err != nil {
		t.Fatal(err)
	}
}

// warmFrames counts the frames o's image of the group holds.
func warmFrames(o *Orchestrator, name string) int64 {
	var n int64
	if rs := o.recvState[name]; rs != nil {
		for _, pages := range rs.image {
			n += int64(len(pages))
		}
	}
	return n
}

// warmCopy is the content of o's image of the group.
func warmCopy(o *Orchestrator, name string) map[objstore.OID]map[int64][]byte {
	out := map[objstore.OID]map[int64][]byte{}
	for oid, pages := range o.recvState[name].image {
		out[oid] = map[int64][]byte{}
		for pg, f := range pages {
			out[oid][pg] = bytes.Clone(f.Data)
		}
	}
	return out
}

// groupMemory is every resident page of the group's memory objects, by OID.
func groupMemory(g *Group) map[objstore.OID]map[int64][]byte {
	out := map[objstore.OID]map[int64][]byte{}
	for key, e := range g.ents {
		if obj, ok := key.(*vm.Object); ok {
			out[e.oid] = map[int64][]byte{}
			obj.EachPage(func(pg int64, p *mem.Page) { out[e.oid][pg] = bytes.Clone(p.Data) })
		}
	}
	return out
}

// heldPages counts the frames the group's memory objects hold.
func heldPages(g *Group) int64 {
	var n int64
	for _, pages := range groupMemory(g) {
		n += int64(len(pages))
	}
	return n
}

func sameMemory(a, b map[objstore.OID]map[int64][]byte) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d memory objects against %d", len(a), len(b))
	}
	for oid, pages := range a {
		other, ok := b[oid]
		if !ok || len(other) != len(pages) {
			return fmt.Errorf("object %d: %d pages against %d", oid, len(pages), len(other))
		}
		for pg, data := range pages {
			if !bytes.Equal(data, other[pg]) {
				return fmt.Errorf("object %d page %d differs", oid, pg)
			}
		}
	}
	return nil
}

// TestStandbyImageMatchesAColdRestore replicates an application through a seed
// and deltas that delete an object and carry a journal and a shm segment, then
// fails over: the promoted memory equals, byte for byte, a restore of the same
// standby store after a crash (which has no image), no page is read from the
// standby's device, and the standby's memory holds exactly the promoted
// group's pages.
func TestStandbyImageMatchesAColdRestore(t *testing.T) {
	src, dst := newWorld(t), newWorld(t)
	a := startWarmApp(t, src)
	rep, err := a.g.ReplicateTo(dst.o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		a.round(t, i)
		if i == 2 {
			if err := a.p.Munmap(a.doomed); err != nil {
				t.Fatal(err)
			}
		}
		if err := rep.Sync(); err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
		if used := dst.k.VM.PM.Used(); used != warmFrames(dst.o, "app") {
			t.Fatalf("sync %d: the standby holds %d frames, its image %d", i, used, warmFrames(dst.o, "app"))
		}
	}
	// Every page the standby stores of the group's memory is in the image.
	var stored int64
	for oid := range dst.o.recvState["app"].live {
		if ut, err := dst.store.UType(oid); err == nil && ut == UTMemObject {
			n, err := dst.store.EachPageBulk(oid, func(int64, []byte) error { return nil })
			if errors.Is(err, objstore.ErrIsJournal) {
				continue
			} else if err != nil {
				t.Fatal(err)
			}
			stored += n
		}
	}
	if frames := warmFrames(dst.o, "app"); frames != stored {
		t.Fatalf("image holds %d pages, the store %d", frames, stored)
	}

	reads := dst.dev.Stats().Reads
	fg, st, err := rep.Failover(RestoreFull)
	if err != nil {
		t.Fatal(err)
	}
	if got := dst.dev.Stats().Reads - reads; got != 0 || st.PagesEager != stored {
		t.Fatalf("failover read %d times from the device and installed %d pages, want 0 and %d", got, st.PagesEager, stored)
	}
	if used, held := dst.k.VM.PM.Used(), heldPages(fg); used != held || warmFrames(dst.o, "app") != 0 {
		t.Fatalf("after failover the standby holds %d frames, its group %d, the image %d", used, held, warmFrames(dst.o, "app"))
	}
	warm := groupMemory(fg)

	cold := dst.crash(t)
	cg, _, err := cold.o.RestoreGroup("app", cold.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameMemory(warm, groupMemory(cg)); err != nil {
		t.Fatalf("warm failover against a cold restore of the same store: %v", err)
	}
	if cold.k.VM.PM.Used() != dst.k.VM.PM.Used() {
		t.Fatalf("cold restore holds %d frames, warm %d", cold.k.VM.PM.Used(), dst.k.VM.PM.Used())
	}
	got := make([]byte, 7)
	if err := fg.Procs()[0].ReadMem(a.shm+3*vm.PageSize, got); err != nil || string(got) != "shm rou" {
		t.Fatalf("promoted shm page 3 = %q, %v", got, err)
	}
	j, err := fg.OpenJournal("wal")
	if err != nil {
		t.Fatal(err)
	}
	if ents, err := j.Entries(); err != nil || len(ents) != 4 || string(ents[3].Payload) != "entry 3" {
		t.Fatalf("promoted journal: %d entries, %v", len(ents), err)
	}
}

// TestRefusedDeltaKeepsTheBaseImage fills the standby's device with a delta: the
// stream is refused mid-apply with ErrFull, the image stays at the last
// committed base and the standby's memory holds nothing else. The failover
// that follows restores from a store the refused stream half wrote (ROADMAP
// item 27): the pages it wrote are missing from the image or fail their sums
// against it, and are read back.
func TestRefusedDeltaKeepsTheBaseImage(t *testing.T) {
	src := newWorld(t)
	dst, err := newWorldSized(16<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := startWarmApp(t, src)
	rep, err := a.g.ReplicateTo(dst.o)
	if err != nil {
		t.Fatal(err)
	}
	a.round(t, 1)
	if err := rep.Sync(); err != nil {
		t.Fatal(err)
	}
	base, frames := warmCopy(dst.o, "app"), dst.k.VM.PM.Used()

	big, err := a.p.Mmap(4096*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	for pg := uint64(0); pg < 4096; pg++ {
		if err := a.p.WriteMem(big+pg*vm.PageSize, []byte{byte(pg), 1}); err != nil {
			t.Fatal(err)
		}
	}
	a.round(t, 2)
	if err := rep.Sync(); !errors.Is(err, objstore.ErrFull) {
		t.Fatalf("a delta larger than the standby: %v, want ErrFull", err)
	}
	if err := sameMemory(base, warmCopy(dst.o, "app")); err != nil {
		t.Fatalf("the refused delta moved the image: %v", err)
	}
	if used := dst.k.VM.PM.Used(); used != frames {
		t.Fatalf("after the refused delta the standby holds %d frames, its image %d", used, frames)
	}

	reads := dst.dev.Stats().Reads
	fg, _, err := rep.Failover(RestoreFull)
	if err != nil {
		t.Fatal(err)
	}
	if dst.dev.Stats().Reads == reads {
		t.Fatal("no page the refused delta wrote was read back")
	}
	if used, held := dst.k.VM.PM.Used(), heldPages(fg); used != held {
		t.Fatalf("after failover the standby holds %d frames, its group %d", used, held)
	}

	// A restore that fails consumes the image, and so does Abandon: either way
	// a standby with no live group holds no frame.
	for _, end := range []string{"failed restore", "abandon"} {
		src, dst := newWorld(t), newWorld(t)
		rep, err := startWarmApp(t, src).g.ReplicateTo(dst.o)
		if err != nil {
			t.Fatal(err)
		}
		if dst.k.VM.PM.Used() == 0 {
			t.Fatal("the standby keeps no image")
		}
		if end == "abandon" {
			rep.Abandon()
		} else if _, _, err := dst.o.RestoreGroup("app", rotted{dst.store}, RestoreFull, true); !errors.Is(err, objstore.ErrPageSum) {
			t.Fatalf("restore over rotted pages: %v", err)
		}
		if used := dst.k.VM.PM.Used(); used != 0 || warmFrames(dst.o, "app") != 0 {
			t.Fatalf("after a %s the standby holds %d frames", end, used)
		}
	}
}

// TestWarmPageMismatchReadsTheDevice flips one byte of one page of the image
// before failover: that page, and only it, is read from the device, and the
// promoted memory is the primary's.
func TestWarmPageMismatchReadsTheDevice(t *testing.T) {
	src, dst := newWorld(t), newWorld(t)
	a := startWarmApp(t, src)
	rep, err := a.g.ReplicateTo(dst.o)
	if err != nil {
		t.Fatal(err)
	}
	a.round(t, 1)
	if err := rep.Sync(); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, warmPages*vm.PageSize)
	if err := a.p.ReadMem(a.va, want); err != nil {
		t.Fatal(err)
	}
	var bad *mem.Page // the image's copy of the region's page 4
	for _, pages := range dst.o.recvState["app"].image {
		if f := pages[4]; f != nil && bytes.HasPrefix(f.Data, []byte("round 1 page 4")) {
			bad = f
		}
	}
	if bad == nil {
		t.Fatal("no page 4 of the region in the image")
	}
	bad.Data[100] ^= 0xFF

	before := dst.dev.Stats()
	fg, _, err := rep.Failover(RestoreFull)
	if err != nil {
		t.Fatal(err)
	}
	after := dst.dev.Stats()
	if reads, bytes := after.Reads-before.Reads, after.BytesRead-before.BytesRead; reads != 1 || bytes != vm.PageSize {
		t.Fatalf("failover over one bad frame read %d times, %d bytes; want the one page", reads, bytes)
	}
	got := make([]byte, len(want))
	if err := fg.Procs()[0].ReadMem(a.va, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the promoted region is not the primary's at its last sync")
	}
}

// TestLazyFailoverInstallsTheImage: a lazy restore (a migration's landing)
// over a warm image installs it too, so the application faults nothing in.
func TestLazyFailoverInstallsTheImage(t *testing.T) {
	src, dst := newWorld(t), newWorld(t)
	a := startWarmApp(t, src)
	rep, err := a.g.ReplicateTo(dst.o)
	if err != nil {
		t.Fatal(err)
	}
	frames, reads := warmFrames(dst.o, "app"), dst.dev.Stats().Reads
	g, st, err := rep.Failover(RestoreLazy)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, warmPages*vm.PageSize)
	if err := g.Procs()[0].ReadMem(a.va, buf); err != nil {
		t.Fatal(err)
	}
	faults, _ := g.LazyPageIns()
	if st.PagesEager != frames || faults != 0 || dst.dev.Stats().Reads != reads {
		t.Fatalf("lazy failover installed %d of %d warm pages, then faulted %d in over %d device reads",
			st.PagesEager, frames, faults, dst.dev.Stats().Reads-reads)
	}
}

// TestStandbyOutOfMemoryKeepsNoImage: a standby whose memory cannot hold the
// seed's pages keeps no image, and no later delta starts one, so its failover
// reads the pages back as it would without the feature.
func TestStandbyOutOfMemoryKeepsNoImage(t *testing.T) {
	src, dst := newWorld(t), newWorld(t)
	dst.k.VM.PM = mem.New(8 * mem.PageSize)
	a := startWarmApp(t, src)
	rep, err := a.g.ReplicateTo(dst.o)
	if err != nil {
		t.Fatal(err)
	}
	// A delta small enough to fit still starts no image.
	if err := a.p.WriteMem(a.va, []byte("one page")); err != nil {
		t.Fatal(err)
	}
	if err := rep.Sync(); err != nil {
		t.Fatal(err)
	}
	if dst.o.recvState["app"].image != nil || dst.k.VM.PM.Used() != 0 {
		t.Fatalf("a standby out of memory keeps an image of %d frames", dst.k.VM.PM.Used())
	}
	want := make([]byte, 2*vm.PageSize)
	if err := a.p.ReadMem(a.va, want); err != nil {
		t.Fatal(err)
	}
	reads := dst.dev.Stats().Reads
	g, st, err := rep.Failover(RestoreLazy)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := g.Procs()[0].ReadMem(a.va, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("promoted pages differ from the primary's (%v)", err)
	}
	if faults, _ := g.LazyPageIns(); st.PagesEager != 0 || faults == 0 || dst.dev.Stats().Reads == reads {
		t.Fatalf("lazy failover with no image installed %d pages and faulted %d in", st.PagesEager, faults)
	}
}

// faultFirst is the standby's store with the application touching one page
// before the loader reaches it, as a speculatively restored group may: the
// page faults in through the pager, and the loader finds it resident.
type faultFirst struct {
	*objstore.Store
	o       *Orchestrator
	va      uint64
	touched bool
}

func (f *faultFirst) EachPageInto(oid objstore.OID, into func(int64) ([]byte, bool, error), fn func(int64, []byte) error) (int64, time.Duration, error) {
	if !f.touched {
		f.touched = true
		g, _ := f.o.GroupByName("app")
		if err := g.Procs()[0].ReadMem(f.va, make([]byte, 1)); err != nil {
			return 0, 0, err
		}
	}
	return f.Store.EachPageInto(oid, into, fn)
}

// TestLoaderReadsAPageAlreadyResident: a speculative restore on a standby
// whose application faulted a page in before the loader ran reads that page
// as it does without an image (checked, not installed), frees its warm frame
// and installs the rest unread.
func TestLoaderReadsAPageAlreadyResident(t *testing.T) {
	src, dst := newWorld(t), newWorld(t)
	a := startWarmApp(t, src)
	if _, err := a.g.ReplicateTo(dst.o); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, warmPages*vm.PageSize)
	if err := a.p.ReadMem(a.va, want); err != nil {
		t.Fatal(err)
	}
	frames := warmFrames(dst.o, "app")
	reads := dst.dev.Stats().Reads
	probe := &faultFirst{Store: dst.store, o: dst.o, va: a.va}
	g, st, err := dst.o.RestoreGroup("app", probe, RestoreSpeculative, true)
	if err != nil {
		t.Fatal(err)
	}
	if !probe.touched || st.PagesValidated != frames-1 {
		t.Fatalf("validated %d of %d warm pages with one resident", st.PagesValidated, frames)
	}
	// The fault's read and the loader's check of the resident page.
	if got := dst.dev.Stats().Reads - reads; got != 2 {
		t.Fatalf("%d device reads, want the fault's and the resident page's check", got)
	}
	if used, held := dst.k.VM.PM.Used(), heldPages(g); used != held {
		t.Fatalf("the standby holds %d frames, its group %d", used, held)
	}
	got := make([]byte, len(want))
	if err := g.Procs()[0].ReadMem(a.va, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("restored region differs from the primary's (%v)", err)
	}
}

// TestFailedRestoreStaysOnTheTimeline fails a restore at a missing group, at a
// corrupt group record and at a memory object that cannot be built: each
// leaves a restore span, and its rebuild child, carrying the error, and the
// last tears down what it built.
func TestFailedRestoreStaysOnTheTimeline(t *testing.T) {
	w, tr := tracedWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 2; m++ {
		va, err := p.Mmap(8*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.WriteMem(va, []byte("page")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}
	groupOID, err := w.o.findGroupOID(w.store, "app")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := w.store.GetRecord(groupOID)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := decodeGroupRecord(raw)
	if err != nil || len(gr.memMetas) < 2 {
		t.Fatalf("group record: %d memory objects, %v", len(gr.memMetas), err)
	}
	// The last memory object's meta, made to name a backer with none.
	last := gr.memMetas[len(gr.memMetas)-1]
	meta := binary.LittleEndian.AppendUint64(nil, uint64(last.oid))
	meta = binary.LittleEndian.AppendUint64(meta, uint64(last.size))
	i := bytes.Index(raw, meta)
	if i < 0 {
		t.Fatal("no meta of the last memory object in the group record")
	}
	orphan := bytes.Clone(raw[:len(raw)-4])
	orphan[i+16] = backAnon
	binary.LittleEndian.PutUint64(orphan[i+17:], 0xBAD)

	for _, tc := range []struct {
		name, group string
		swap        []byte
		want        string
	}{
		{"missing group", "nope", nil, `sls: no such consistency group: "nope"`},
		{"corrupt record", "app", damage(raw, "garbage"), damagedRecordError("group", "garbage")},
		{"memory object", "app", reseal(orphan), "sls: restore: no metadata for memory object 2989"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w2 := w.crash(t)
			retrace(w2, tr)
			var src Source = w2.store
			if tc.swap != nil {
				src = corruptSource{Source: w2.store, oid: groupOID, raw: tc.swap}
			}
			_, _, err := w2.o.RestoreGroup(tc.group, src, RestoreFull, true)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("restore = %v, want %q", err, tc.want)
			}
			spans := spansNamed(tr.Events(), "restore")
			rs := spans[len(spans)-1]
			var rebuild trace.Event
			for _, ev := range tr.Events() {
				if ev.Parent == rs.ID && ev.Name == "rebuild" {
					rebuild = ev
				}
			}
			for _, ev := range []trace.Event{rs, rebuild} {
				if got := errArg(ev); got != tc.want {
					t.Fatalf("%q span's err = %q, want %q", ev.Name, got, tc.want)
				}
			}
			if _, ok := w2.o.GroupByName(tc.group); ok || w2.k.VM.PM.Used() != 0 {
				t.Fatalf("the failed restore left its group registered or %d frames out", w2.k.VM.PM.Used())
			}
		})
	}
}

func errArg(ev trace.Event) string {
	for _, a := range ev.Args {
		if a.Key == "err" {
			return a.Str
		}
	}
	return ""
}

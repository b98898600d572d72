package aurora_test

// One scripted crash image restored under each of the three restore verbs.
// The pin holds what each verb reports and costs; the verbs differ only in
// when the page loader runs, so a change to one of them shows here as a
// moved row.

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"aurora"
	"aurora/internal/apps/memcached"
	"aurora/internal/objstore"
	"aurora/internal/sls"
	"aurora/internal/vm"
)

const policyItems = 256 // 128 KiB of arena: 32 pages

// policyImage boots a machine, runs memcached with a pipe and a connected TCP
// pair beside it, commits, and loses a tail of writes to a crash. It returns
// the rebooted machine and the arena's base.
func policyImage(t *testing.T) (*aurora.Machine, uint64) {
	t.Helper()
	m, err := aurora.NewMachine(aurora.Config{StorageBytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s, err := memcached.New(m.K, policyItems)
	if err != nil {
		t.Fatal(err)
	}
	p := s.Proc
	g, err := m.Attach("mc", p)
	if err != nil {
		t.Fatal(err)
	}
	fd := must[int](t)
	ok := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	set := func(lo, hi int, tag byte) {
		t.Helper()
		for i := lo; i < hi; i++ {
			val := []byte(strings.Repeat(string(rune('a'+i%26)), 40+i%200))
			val[0] = tag
			ok(s.Set(fmt.Sprintf("k%03d", i), val))
		}
	}

	_, wfd, err := p.Pipe()
	ok(err)
	fd(p.Write(wfd, []byte("held in the pipe")))
	lfd := fd(p.Socket(aurora.SockTCP))
	ok(p.Bind(lfd, "10.0.0.1:11211"))
	ok(p.Listen(lfd))
	cli := fd(p.Socket(aurora.SockTCP))
	ok(p.Connect(cli, "10.0.0.1:11211"))
	fd(p.Accept(lfd))
	fd(p.Write(cli, []byte("get k007")))

	set(0, policyItems, 1)
	_, err = g.Checkpoint(aurora.CkptFull)
	ok(err)
	set(0, policyItems/3, 2)
	_, err = g.Checkpoint(aurora.CkptIncremental)
	ok(err)
	ok(g.Barrier())
	set(policyItems/2, policyItems, 3) // never committed: the crash loses it

	m2, err := m.Crash()
	ok(err)
	arena, _ := s.Arena()
	return m2, arena
}

// restorePolicyRow restores policyImage's crash with one verb and renders
// what the pin holds: the stats, the clock, the device reads the restore made,
// and the arena after the application's first request.
func restorePolicyRow(t *testing.T, name string, restore func(*aurora.Machine, string) (*aurora.Group, aurora.RestoreStats, error)) string {
	t.Helper()
	m, arena := policyImage(t)
	d0 := m.Disk.Stats()
	g, st, err := restore(m, "mc")
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	clk := m.Clock.Now()
	d1 := m.Disk.Stats()

	p := g.Procs()[0]
	s, err := memcached.RebuildIndex(p, arena, policyItems)
	if err != nil {
		t.Fatal(err)
	}
	val, found, err := s.Get("k007")
	if err != nil || !found || val[0] != 2 {
		t.Fatalf("%s: first request after the restore: found=%v err=%v", name, found, err)
	}
	buf := make([]byte, policyItems*memcached.SlotSize)
	if err := p.ReadMem(arena, buf); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s: time=%d ttfo=%d eager=%d validated=%d objects=%d clock=%d reads=%d bytes=%d arena=%08x",
		name, st.Time, st.TimeToFirstOp, st.PagesEager, st.PagesValidated, st.Objects,
		clk, d1.Reads-d0.Reads, d1.BytesRead-d0.BytesRead, crc32.ChecksumIEEE(buf))
}

// restorePolicyPin is TestRestorePolicyPinned's transcript.
const restorePolicyPin = `full: time=57354 ttfo=0 eager=32 validated=0 objects=11 clock=1417292 reads=33 bytes=135168 arena=d5d6b369
lazy: time=10800 ttfo=0 eager=0 validated=0 objects=11 clock=1370738 reads=0 bytes=0 arena=ff1200ec
speculative: time=57354 ttfo=10800 eager=0 validated=32 objects=11 clock=1417292 reads=33 bytes=135168 arena=d5d6b369`

// TestRestorePolicyPinned holds Restore, RestoreLazily and
// RestoreSpeculatively to what they report (time, time to first op, pages
// loaded and objects), the clock after each, the device reads each makes, and
// the arena after one request, over one crash image with a memcached arena, a
// pipe and a socket.
func TestRestorePolicyPinned(t *testing.T) {
	got := strings.Join([]string{
		restorePolicyRow(t, "full", (*aurora.Machine).Restore),
		restorePolicyRow(t, "lazy", (*aurora.Machine).RestoreLazily),
		restorePolicyRow(t, "speculative", (*aurora.Machine).RestoreSpeculatively),
	}, "\n")
	if got != restorePolicyPin {
		t.Errorf("restore policies\n got %s\nwant %s", got, restorePolicyPin)
	}
}

// TestRotFailsEveryRestorePolicy plants one rotted data page — page 0 of an
// arena, found on the device by a marker — and restores the crash image with
// each verb. Whichever of them reads the page first, the loader or the
// faulting access, fails with an error naming the object and the page; no
// policy hands the application the rotted bytes.
func TestRotFailsEveryRestorePolicy(t *testing.T) {
	marker := []byte("rot-under-every-policy-0x3C5AA53C")
	for _, tc := range []struct {
		name    string
		restore func(*aurora.Machine, string) (*aurora.Group, aurora.RestoreStats, error)
	}{
		{"full", (*aurora.Machine).Restore},
		{"lazy", (*aurora.Machine).RestoreLazily},
		{"speculative", (*aurora.Machine).RestoreSpeculatively},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := aurora.NewMachine(aurora.Config{StorageBytes: 64 << 20, Fault: &aurora.FaultPlan{CutAtSubmit: -1}})
			if err != nil {
				t.Fatal(err)
			}
			p := m.Spawn("app")
			g, err := m.Attach("app", p)
			if err != nil {
				t.Fatal(err)
			}
			va, err := p.Mmap(8*vm.PageSize, aurora.ProtRead|aurora.ProtWrite, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := errors.Join(p.WriteMem(va, marker), p.WriteMem(va+vm.PageSize, []byte{0x11})); err != nil {
				t.Fatal(err)
			}
			if _, err := g.Checkpoint(aurora.CkptFull); err != nil {
				t.Fatal(err)
			}
			if err := g.Barrier(); err != nil {
				t.Fatal(err)
			}
			off := int64(-1)
			buf := make([]byte, 1<<20)
			for at := int64(0); off < 0 && at < m.Fault.Size(); at += int64(len(buf)) {
				m.Fault.PeekAt(buf, at)
				if i := bytes.Index(buf, marker); i >= 0 {
					off = at + int64(i)
				}
			}
			if off < 0 {
				t.Fatal("marker page not found on the device")
			}
			m2, err := m.Crash()
			if err != nil {
				t.Fatal(err)
			}
			var arena objstore.OID
			page := make([]byte, vm.PageSize)
			for _, oid := range m2.Store.Objects() {
				ut, _ := m2.Store.UType(oid)
				if found, err := m2.Store.ReadPage(oid, 1, page); ut == sls.UTMemObject && err == nil && found && page[0] == 0x11 {
					arena = oid
				}
			}
			m2.Fault.Arm(aurora.FaultPlan{CutAtSubmit: -1, RotOffsets: []int64{off + 9}})

			used := m2.K.VM.PM.Used()
			g2, _, err := tc.restore(m2, "app")
			if err != nil {
				// A refused restore leaves no frame behind: not the pages it
				// installed, nor those it read and never installed.
				if now := m2.K.VM.PM.Used(); now != used {
					t.Fatalf("%s: a refused restore left %d frames allocated, %d before it", tc.name, now, used)
				}
			} else {
				err = g2.Procs()[0].ReadMem(va, make([]byte, len(marker)))
			}
			want := fmt.Sprintf("oid %d page 0", arena)
			if !errors.Is(err, objstore.ErrPageSum) || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s restore of a rotted page: err = %v, want %v naming %q", tc.name, err, objstore.ErrPageSum, want)
			}
		})
	}
}

package slsfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"aurora/internal/clock"
	"aurora/internal/device"
	"aurora/internal/objstore"
	"aurora/internal/vfs"
)

func mountFS(t *testing.T) (*FS, *device.Stripe, *clock.Virtual) {
	t.Helper()
	clk := clock.NewVirtual()
	costs := clock.DefaultCosts()
	dev := device.NewStripe(clk, costs, 4, 64<<10, 512<<20)
	store, err := objstore.Format(dev, clk, costs)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Format(store, clk, costs)
	if err != nil {
		t.Fatal(err)
	}
	return fs, dev, clk
}

func remount(t *testing.T, dev *device.Stripe, clk *clock.Virtual) *FS {
	t.Helper()
	costs := clock.DefaultCosts()
	store, err := objstore.Recover(dev, clk, costs, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Recover(store, clk, costs)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestCreateWriteRead(t *testing.T) {
	fs, _, _ := mountFS(t)
	f, err := fs.Create("/etc/motd")
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("welcome to the single level store")
	if _, err := f.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q", got)
	}
	if f.Size() != int64(len(want)) {
		t.Fatalf("size = %d", f.Size())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateExistingFails(t *testing.T) {
	fs, _, _ := mountFS(t)
	if _, err := fs.Create("/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("/a"); !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("second create: %v", err)
	}
	if _, err := fs.Open("/missing"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("open missing: %v", err)
	}
}

func TestDataSurvivesRemount(t *testing.T) {
	fs, dev, clk := mountFS(t)
	f, _ := fs.Create("/var/db/data")
	f.WriteAt([]byte("durable"), 100)
	f.Close()
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	fs2 := remount(t, dev, clk)
	g, err := fs2.Open("/var/db/data")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 7)
	if _, err := g.ReadAt(got, 100); err != nil {
		t.Fatal(err)
	}
	if string(got) != "durable" {
		t.Fatalf("got %q", got)
	}
}

func TestUnsyncedChangesLostOnCrash(t *testing.T) {
	fs, dev, clk := mountFS(t)
	f, _ := fs.Create("/committed")
	f.WriteAt([]byte("v1"), 0)
	f.Close()
	fs.Sync()
	// Post-checkpoint changes, never synced.
	g, _ := fs.Create("/uncommitted")
	g.WriteAt([]byte("lost"), 0)
	g.Close()

	fs2 := remount(t, dev, clk)
	if fs2.Exists("/uncommitted") {
		t.Fatal("uncommitted file survived crash")
	}
	if !fs2.Exists("/committed") {
		t.Fatal("committed file lost")
	}
}

func TestFsyncIsNoop(t *testing.T) {
	fs, _, clk := mountFS(t)
	f, _ := fs.Create("/log")
	f.WriteAt(make([]byte, 4096), 0)
	before := clk.Now()
	if err := f.Fsync(); err != nil {
		t.Fatal(err)
	}
	if got := clk.Now() - before; got > 2*time.Microsecond {
		t.Fatalf("fsync charged %v; checkpoint consistency makes it a no-op", got)
	}
}

func TestAnonymousFileSurvivesViaHiddenRef(t *testing.T) {
	// The paper's headline file-system edge case: an unlinked-but-open
	// file must survive a crash because a checkpointed process still
	// references it.
	fs, dev, clk := mountFS(t)
	f, _ := fs.Create("/tmp/scratch")
	f.WriteAt([]byte("anonymous"), 0)
	oid := f.(*file).oid
	// A checkpointed process holds the descriptor: hidden reference.
	fs.AddHiddenRef(oid)
	if err := fs.Remove("/tmp/scratch"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/tmp/scratch") {
		t.Fatal("path still linked")
	}
	fs.Sync()

	fs2 := remount(t, dev, clk)
	g, err := fs2.OpenByOID(oid)
	if err != nil {
		t.Fatalf("anonymous file lost after crash: %v", err)
	}
	got := make([]byte, 9)
	g.ReadAt(got, 0)
	if string(got) != "anonymous" {
		t.Fatalf("content %q", got)
	}
}

func TestAnonymousFileReapedWhenLastRefDrops(t *testing.T) {
	fs, _, _ := mountFS(t)
	f, _ := fs.Create("/tmp/x")
	oid := f.(*file).oid
	fs.Remove("/tmp/x")
	// The open handle still holds it.
	if !fs.Store().Exists(oid) {
		t.Fatal("object reaped while open")
	}
	f.Close()
	if fs.Store().Exists(oid) {
		t.Fatal("object not reaped after last close of unlinked file")
	}
}

func TestRename(t *testing.T) {
	fs, _, _ := mountFS(t)
	f, _ := fs.Create("/a")
	f.WriteAt([]byte("payload"), 0)
	f.Close()
	g, _ := fs.Create("/b")
	g.Close()
	if err := fs.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/a") {
		t.Fatal("/a still exists")
	}
	h, err := fs.Open("/b")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 7)
	h.ReadAt(got, 0)
	if string(got) != "payload" {
		t.Fatalf("rename target content %q", got)
	}
}

func TestList(t *testing.T) {
	fs, _, _ := mountFS(t)
	for _, p := range []string{"/d/a", "/d/b", "/e/c"} {
		f, _ := fs.Create(p)
		f.Close()
	}
	got := fs.List("/d/")
	if len(got) != 2 || got[0] != "/d/a" || got[1] != "/d/b" {
		t.Fatalf("List = %v", got)
	}
}

func TestVnodeByOIDAfterRemount(t *testing.T) {
	fs, dev, clk := mountFS(t)
	f, _ := fs.Create("/data")
	f.WriteAt([]byte("by-inode"), 0)
	f.Close()
	oid, ok := fs.OIDOf("/data")
	if !ok {
		t.Fatal("no OID for /data")
	}
	fs.Sync()
	fs2 := remount(t, dev, clk)
	// Restore-time open by inode number, no path lookup.
	g, err := fs2.OpenByOID(oid)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	g.ReadAt(got, 0)
	if string(got) != "by-inode" {
		t.Fatalf("content %q", got)
	}
}

func TestPeriodicCheckpointTriggers(t *testing.T) {
	fs, _, _ := mountFS(t)
	fs.SetCheckpointPeriod(10 * time.Millisecond)
	before := fs.Store().Epoch()
	f, _ := fs.Create("/busy")
	buf := make([]byte, 64<<10)
	for i := 0; i < 2000; i++ {
		if _, err := f.WriteAt(buf, int64(i)*int64(len(buf))); err != nil {
			t.Fatal(err)
		}
	}
	if got := fs.Store().Epoch(); got <= before {
		t.Fatalf("no periodic checkpoints fired (epoch %d -> %d)", before, got)
	}
}

func TestManyFilesRemount(t *testing.T) {
	fs, dev, clk := mountFS(t)
	for i := 0; i < 100; i++ {
		f, err := fs.Create(fmt.Sprintf("/files/f%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&vfsWriter{f}, "content-%d", i)
		f.Close()
	}
	fs.Sync()
	fs2 := remount(t, dev, clk)
	if got := len(fs2.List("/files/")); got != 100 {
		t.Fatalf("remounted files = %d", got)
	}
	g, _ := fs2.Open("/files/f042")
	buf := make([]byte, 16)
	n, _ := g.ReadAt(buf, 0)
	if string(buf[:n]) != "content-42" {
		t.Fatalf("got %q", buf[:n])
	}
}

// vfsWriter adapts a vfs.File to io.Writer (append).
type vfsWriter struct{ f vfs.File }

func (w *vfsWriter) Write(p []byte) (int, error) { return w.f.Append(p) }

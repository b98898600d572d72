package slsfs

import (
	"encoding/hex"
	"errors"
	"maps"
	"strings"
	"testing"

	"aurora/internal/rec"
)

// buildNamespace leaves fs with several names, a hard link (two names on
// one object, link count 2), an open file (hidden reference 2 with its
// creator's handle) and an unlinked file kept alive only by a hidden
// reference, then syncs it. It returns the stored namespace record.
func buildNamespace(t *testing.T, fs *FS) []byte {
	t.Helper()
	for _, p := range []string{"/etc/motd", "/var/db/data", "/tmp/scratch", "/a"} {
		f, err := fs.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if p != "/var/db/data" {
			f.Close()
		}
	}
	oid, _ := fs.OIDOf("/var/db/data")
	fs.AddHiddenRef(oid)
	// slsfs has no link call; a hard link is a second name and a count.
	fs.names["/var/db/link"] = oid
	fs.nlink[oid]++
	fs.dirtyNS = true
	anon, _ := fs.OIDOf("/tmp/scratch")
	fs.AddHiddenRef(anon)
	if err := fs.Remove("/tmp/scratch"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	rec, err := fs.Store().GetRecord(NamespaceOID)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestNamespaceRecordPinned pins the namespace record's bytes: names in
// sorted order with their OID and link count, then the hidden references by
// OID. The record is unsealed and its bytes are part of every image.
func TestNamespaceRecordPinned(t *testing.T) {
	fs, dev, clk := mountFS(t)
	rec := buildNamespace(t, fs)
	const want = "04000000" + // names
		"02000000" + "2f61" + "0500000000000000" + "01000000" + // /a
		"09000000" + "2f6574632f6d6f7464" + "0200000000000000" + "01000000" + // /etc/motd
		"0c000000" + "2f7661722f64622f64617461" + "0300000000000000" + "02000000" + // /var/db/data
		"0c000000" + "2f7661722f64622f6c696e6b" + "0300000000000000" + "02000000" + // /var/db/link
		"02000000" + // hidden references
		"0300000000000000" + "02000000" + // the open file
		"0400000000000000" + "01000000" // the unlinked one
	if got := hex.EncodeToString(rec); got != want {
		t.Fatalf("namespace record:\n got %s\nwant %s", got, want)
	}

	fs2 := remount(t, dev, clk)
	if !maps.Equal(fs2.names, fs.names) || !maps.Equal(fs2.nlink, fs.nlink) || !maps.Equal(fs2.hidden, fs.hidden) {
		t.Fatalf("remount: names %v nlink %v hidden %v, want %v %v %v",
			fs2.names, fs2.nlink, fs2.hidden, fs.names, fs.nlink, fs.hidden)
	}
}

// TestTruncatedNamespaceFailsRecover: a namespace record cut anywhere short
// of its end makes Recover fail as rec.ErrCorrupt with an error that names
// the namespace.
func TestTruncatedNamespaceFailsRecover(t *testing.T) {
	fs, _, clk := mountFS(t)
	ns := buildNamespace(t, fs)
	store := fs.Store()
	for _, cut := range []int{0, 3, 4, 11, len(ns) / 2, len(ns) - 1} {
		if err := store.PutRecord(NamespaceOID, UTypeNamespace, ns[:cut]); err != nil {
			t.Fatal(err)
		}
		_, err := Recover(store, clk, fs.costs)
		if !errors.Is(err, rec.ErrCorrupt) || !strings.Contains(err.Error(), "namespace") {
			t.Fatalf("cut at %d of %d: Recover error %v, want one naming the namespace", cut, len(ns), err)
		}
	}
}

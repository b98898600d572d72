package sls

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"

	"aurora/internal/rec"
)

// localAndReceived builds a machine holding one group of its own ("local")
// and one received from another machine ("guest"), and returns it.
func localAndReceived(t *testing.T) *world {
	t.Helper()
	w, other := newWorld(t), newWorld(t)
	lg := w.o.CreateGroup("local")
	lg.Attach(w.k.NewProc("local"))
	if _, err := lg.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	gg := other.o.CreateGroup("guest")
	gg.Attach(other.k.NewProc("guest"))
	if _, err := gg.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	sendTo(t, gg, w.o, 0)
	return w
}

func TestManifestBytesPinned(t *testing.T) {
	w := localAndReceived(t)
	raw, err := w.store.GetRecord(ManifestOID)
	if err != nil {
		t.Fatal(err)
	}
	const want = "020000000100000000000000050000006c6f63616c030000000000000002000000000000000500000067756573740300000000000000727937c7"
	if got := hex.EncodeToString(raw); got != want {
		t.Fatalf("manifest record = %s, want %s", got, want)
	}
}

// TestUndecodableManifestIsAnError: a manifest that cannot be decoded is not
// an empty one. Every path that reads it reports the decode error, and the
// two that rewrite it — a checkpoint's refresh and a receive's merge — leave
// the record as it was instead of replacing it with one that lacks the
// groups it named.
func TestUndecodableManifestIsAnError(t *testing.T) {
	w := localAndReceived(t)
	rotten := []byte("not a sealed record")
	if err := w.store.PutRecord(ManifestOID, UTManifest, rotten); err != nil {
		t.Fatal(err)
	}
	lg, _ := w.o.GroupByName("local")
	other := newWorld(t)
	og := other.o.CreateGroup("third")
	og.Attach(other.k.NewProc("third"))
	if _, err := og.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if err := og.Send(&stream); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		op   func() error
	}{
		{"ManifestGroups", func() error { _, err := ManifestGroups(w.store); return err }},
		{"RestoreGroup", func() error { _, _, err := w.o.RestoreGroup("guest", w.store, RestoreFull, true); return err }},
		{"Checkpoint", func() error { _, err := lg.Checkpoint(CkptIncremental); return err }},
		{"Recv", func() error { _, err := w.o.Recv(&stream); return err }},
	} {
		if err := tc.op(); !errors.Is(err, rec.ErrCorrupt) {
			t.Errorf("%s over an undecodable manifest: err = %v, want rec.ErrCorrupt", tc.name, err)
		}
		if raw, err := w.store.GetRecord(ManifestOID); err != nil || !bytes.Equal(raw, rotten) {
			t.Fatalf("%s rewrote the manifest it could not read: %q (err %v)", tc.name, raw, err)
		}
	}
}

// TestZeroByteManifestIsNoGroups: New ensures the manifest object, so a store
// holds a zero-byte one until its first group checkpoint.
func TestZeroByteManifestIsNoGroups(t *testing.T) {
	w := newWorld(t)
	if raw, err := w.store.GetRecord(ManifestOID); err != nil || len(raw) != 0 {
		t.Fatalf("fresh manifest = %q, err %v", raw, err)
	}
	if names, err := ManifestGroups(w.store); err != nil || len(names) != 0 {
		t.Fatalf("ManifestGroups = %v, err %v", names, err)
	}
	if _, _, err := w.o.RestoreGroup("nobody", w.store, RestoreFull, true); !errors.Is(err, ErrNoGroup) {
		t.Fatalf("restore from an empty manifest: err = %v, want ErrNoGroup", err)
	}
}

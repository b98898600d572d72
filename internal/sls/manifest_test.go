package sls

import (
	"bytes"
	"encoding/hex"
	"errors"
	"slices"
	"testing"

	"aurora/internal/rec"
	"aurora/internal/vm"
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

// TestRefusedSeedWritesNothing: a full stream the receiver must refuse — its
// group is already in the manifest, or the manifest cannot be read — is
// refused at its head. None of the objects it carries reaches the store
// (they used to be written, uncommitted, before the end-of-stream merge
// noticed), and the live structures stay consistent.
func TestRefusedSeedWritesNothing(t *testing.T) {
	// A source whose "guest" sits at OIDs the receiver does not hold: a pad
	// group takes the ones a fresh machine hands out first.
	other := newWorld(t)
	pad := other.o.CreateGroup("pad")
	pad.Attach(other.k.NewProc("pad"))
	if _, err := pad.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	gg := other.o.CreateGroup("guest")
	p := other.k.NewProc("guest")
	va, err := p.Mmap(4*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteMem(va, bytes.Repeat([]byte{7}, 4*vm.PageSize)); err != nil {
		t.Fatal(err)
	}
	gg.Attach(p)
	if _, err := gg.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if err := gg.Send(&stream); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		prepare func(w *world)
	}{
		{"group already listed", func(*world) {}},
		{"unreadable manifest", func(w *world) {
			if err := w.store.PutRecord(ManifestOID, UTManifest, []byte("not a sealed record")); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := localAndReceived(t) // already holds a "guest"
			tc.prepare(w)
			before := w.store.Objects()
			if _, err := w.o.Recv(bytes.NewReader(stream.Bytes())); err == nil {
				t.Fatal("the stream was accepted")
			}
			if after := w.store.Objects(); !slices.Equal(before, after) {
				t.Fatalf("a refused stream left objects behind: store held %v, holds %v", before, after)
			}
			if probs := w.store.AuditLive(); len(probs) > 0 {
				t.Fatalf("AuditLive after the refusal: %v", probs)
			}
		})
	}
}

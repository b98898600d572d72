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

// TestManifestMirrorIsTheRecord drives one orchestrator through every kind of
// manifest change — two new groups, a suspended one (forgotten, its entry
// kept), a received one, and a restore that gives a group a new ID — and
// after every commit holds the mirror equal to the record in the store and
// the record equal to the entries those steps make. A commit that changes
// no entry writes no record: the mirror still holds the bytes putManifest
// last sealed.
func TestManifestMirrorIsTheRecord(t *testing.T) {
	w := newWorld(t)
	entryOf := func(g *Group) manifestEntry { return manifestEntry{id: g.ID, name: g.Name, oid: g.oid} }
	check := func(step string, want []manifestEntry) {
		t.Helper()
		got, _, err := readManifest(w.store)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: manifest record = %v, want %v", step, got, want)
		}
		if !slices.Equal(w.o.manifest, got) {
			t.Fatalf("%s: mirror = %v, record = %v", step, w.o.manifest, got)
		}
	}
	checkpoint := func(g *Group) {
		t.Helper()
		if _, err := g.Checkpoint(CkptIncremental); err != nil {
			t.Fatal(err)
		}
	}
	// unchanged checkpoints g and requires the manifest to stay unwritten.
	unchanged := func(step string, g *Group, want []manifestEntry) {
		t.Helper()
		raw := w.o.manifestRaw
		checkpoint(g)
		check(step, want)
		if &w.o.manifestRaw[0] != &raw[0] {
			t.Fatalf("%s: a commit that changed no entry rewrote the manifest", step)
		}
	}

	ga := w.o.CreateGroup("a")
	ga.Attach(w.k.NewProc("a"))
	checkpoint(ga)
	check("a's first checkpoint", []manifestEntry{entryOf(ga)})
	gb := w.o.CreateGroup("b")
	gb.Attach(w.k.NewProc("b"))
	checkpoint(gb)
	want := []manifestEntry{entryOf(ga), entryOf(gb)}
	check("b's first checkpoint", want)
	unchanged("a again", ga, want)

	if err := ga.Suspend(); err != nil {
		t.Fatal(err)
	}
	check("a suspended", want)
	unchanged("b after a was forgotten", gb, want)

	other := newWorld(t)
	gc := other.o.CreateGroup("c")
	gc.Attach(other.k.NewProc("c"))
	checkpoint(gc)
	sendTo(t, gc, w.o, 0)
	want = append(want, manifestEntry{id: 3, name: "c", oid: gc.oid})
	check("c received", want)
	unchanged("b after c arrived", gb, want)

	ra, _, err := w.o.RestoreGroup("a", w.store, RestoreFull, true)
	if err != nil {
		t.Fatal(err)
	}
	if ra.ID == ga.ID {
		t.Fatalf("restored a kept ID %d; the test needs a new one", ra.ID)
	}
	checkpoint(ra)
	want[0] = entryOf(ra)
	check("a restored under a new ID", want)
	unchanged("a restored, again", ra, want)
	unchanged("b at the end", gb, want)
}

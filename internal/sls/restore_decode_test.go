package sls

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"aurora/internal/kern"
	"aurora/internal/objstore"
	"aurora/internal/vm"
)

// damage returns raw with one kind of damage applied.
func damage(raw []byte, mode string) []byte {
	switch mode {
	case "truncated":
		return raw[:len(raw)/2]
	case "tiny":
		if len(raw) > 3 {
			return raw[:3]
		}
		return nil
	case "garbage":
		g := make([]byte, len(raw))
		for i := range g {
			g[i] = byte(0xA5 ^ i)
		}
		return g
	case "empty":
		return nil
	case "cut":
		// The first half of the body under a seal of its own: the CRC holds,
		// so the record's reader is what has to notice.
		return reseal(raw[:(len(raw)-4)/2])
	}
	return raw
}

func reseal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.ChecksumIEEE(body))
}

var damageModes = []string{"truncated", "tiny", "garbage", "empty", "cut"}

// corruptSource wraps a restore Source and swaps one object's record.
type corruptSource struct {
	Source
	oid objstore.OID
	raw []byte
}

func (c corruptSource) GetRecord(oid objstore.OID) ([]byte, error) {
	if oid == c.oid {
		return c.raw, nil
	}
	return c.Source.GetRecord(oid)
}

// restoredRecords lists every record kind a restore reads back, by the tag
// the store files it under. The address-space entry (embedded in the process
// record) has cases of its own below.
var restoredRecords = []struct {
	name  string
	utype uint16
}{
	{"manifest", UTManifest},
	{"group", UTGroup},
	{"proc", UTProc},
	{"file", UTFileDesc},
	{"pipe", UTPipe},
	{"socket", UTSocket},
	{"shm", UTShm},
	{"kqueue", UTKqueue},
	{"pty", UTPTY},
	{"device", UTDeviceFile},
}

// damagedRecordError is the full text a damaged record fails with: what the
// seal check says for each mode, and the cases where something else speaks
// first.
func damagedRecordError(kind, mode string) string {
	switch kind + "/" + mode {
	case "manifest/empty":
		// A zero-byte manifest is a store that holds no group yet.
		return `sls: no such consistency group: "app"`
	}
	switch mode {
	case "tiny", "empty":
		return "rec: corrupt record: short"
	case "cut":
		return "rec: corrupt record: truncated"
	}
	return "rec: corrupt record: bad checksum"
}

// TestRestoreCorruptRecords feeds restore a checkpoint in which one record
// at a time — every kind the orchestrator writes — is truncated, garbled,
// emptied, or cut short under a valid seal. Every case must come back as the
// one error pinned here, never a panic or a hang: a corrupt count field must
// not drive a huge allocation loop, and a short buffer must not index past
// its end.
func TestRestoreCorruptRecords(t *testing.T) {
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}

	// One of everything restore knows how to decode.
	va, err := p.Mmap(1<<20, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	p.WriteMem(va, []byte("state"))
	if fd, err := p.Open("/config", kern.ORead|kern.OWrite, true); err != nil {
		t.Fatal(err)
	} else {
		p.Write(fd, []byte("file body"))
	}
	if _, wfd, err := p.Pipe(); err != nil {
		t.Fatal(err)
	} else {
		p.Write(wfd, []byte("in the pipe"))
	}
	if _, err := p.Socket(kern.KindSocketUDP); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ShmOpen("/seg", 1<<16); err != nil {
		t.Fatal(err)
	}
	kq, err := p.Kqueue()
	if err != nil {
		t.Fatal(err)
	}
	p.KeventAdd(kq, kern.Kevent{Ident: 1, Filter: kern.FilterUser})
	if _, _, err := p.OpenPTY(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.OpenDevice(kern.DevNull); err != nil {
		t.Fatal(err)
	}

	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}

	// The first object of each kind is the one damaged.
	targets := map[uint16]objstore.OID{}
	for _, oid := range w.store.Objects() {
		ut, err := w.store.UType(oid)
		if err != nil {
			t.Fatal(err)
		}
		if _, seen := targets[ut]; !seen {
			targets[ut] = oid
		}
	}

	restoreWith := func(t *testing.T, oid objstore.OID, swap func(raw []byte) []byte, want string) {
		t.Helper()
		w2 := w.crash(t)
		raw, err := w2.store.GetRecord(oid)
		if err != nil {
			t.Fatal(err)
		}
		src := corruptSource{Source: w2.store, oid: oid, raw: swap(raw)}
		_, _, err = w2.o.RestoreGroup("app", src, RestoreFull, true)
		if err == nil || err.Error() != want {
			t.Fatalf("restore = %v, want %q", err, want)
		}
		if _, ok := w2.o.GroupByName("app"); ok {
			t.Fatal("the failed restore left its group registered")
		}
	}

	for _, k := range restoredRecords {
		oid, ok := targets[k.utype]
		if !ok {
			t.Fatalf("checkpoint wrote no %s record", k.name)
		}
		for _, mode := range damageModes {
			t.Run(k.name+"/"+mode, func(t *testing.T) {
				restoreWith(t, oid, func(raw []byte) []byte { return damage(raw, mode) }, damagedRecordError(k.name, mode))
			})
		}
	}

	// The address-space entry is a blob inside the process record with no
	// seal of its own. The anonymous mapping's starts with its address.
	entryAt := func(t *testing.T, raw []byte) int {
		t.Helper()
		i := bytes.Index(raw, binary.LittleEndian.AppendUint64(nil, va))
		if i < 4 || binary.LittleEndian.Uint32(raw[i-4:]) != 35 {
			t.Fatalf("no 35-byte entry blob for the mapping at %#x in the process record", va)
		}
		return i
	}
	t.Run("entry/cut", func(t *testing.T) {
		restoreWith(t, targets[UTProc], func(raw []byte) []byte {
			i := entryAt(t, raw)
			body := bytes.Clone(raw[:i+10])
			binary.LittleEndian.PutUint32(body[i-4:], 10)
			return reseal(append(body, raw[i+35:len(raw)-4]...))
		}, "rec: corrupt record: truncated")
	})
	t.Run("entry/kind", func(t *testing.T) {
		restoreWith(t, targets[UTProc], func(raw []byte) []byte {
			body := bytes.Clone(raw[:len(raw)-4])
			body[entryAt(t, raw)+26] = 0xFF
			return reseal(body)
		}, "sls: restore: unknown entry kind 255")
	})

	// A description whose kind no reader knows.
	t.Run("file/kind", func(t *testing.T) {
		restoreWith(t, targets[UTFileDesc], func(raw []byte) []byte {
			body := bytes.Clone(raw[:len(raw)-4])
			binary.LittleEndian.PutUint16(body, uint16(kern.KindDevice)+1)
			return reseal(body)
		}, "sls: restore: unknown file kind ObjKind(0x19)")
	})
}

package sls

// The POSIX object model, kind by kind: every kern.ObjKind has a writer and a
// reader, they agree byte for byte, and a kind neither knows is refused by
// both. The tests go through Checkpoint and RestoreGroup only, so they hold
// whatever shape the writers and readers take.

import (
	"errors"
	"strings"
	"testing"

	"aurora/internal/kern"
	"aurora/internal/objstore"
	"aurora/internal/rec"
)

// objKinds enumerates kern.ObjKind from the code: the named kinds are
// consecutive from KindVnode.
func objKinds() []kern.ObjKind {
	var out []kern.ObjKind
	for k := kern.KindVnode; !strings.HasPrefix(k.String(), "ObjKind("); k++ {
		out = append(out, k)
	}
	return out
}

// kindBuilders gives p descriptions of one kind, each in a state that puts
// every field of its records off the zero value.
var kindBuilders = map[kern.ObjKind]func(w *world, p *kern.Proc) error{
	kern.KindVnode: func(w *world, p *kern.Proc) error {
		fd, err := p.Open("/f", kern.ORead|kern.OWrite, true)
		if err != nil {
			return err
		}
		_, err = p.Write(fd, []byte("0123456789"))
		_, err2 := p.Lseek(fd, 3)
		// The file outlives the crash by its name, which only the file
		// system's own checkpoint records.
		return errors.Join(err, err2, p.SetFlags(fd, kern.ORead|kern.OAppend), w.fs.Checkpoint())
	},
	kern.KindPipe: func(w *world, p *kern.Proc) error {
		_, wfd, err := p.Pipe()
		if err != nil {
			return err
		}
		_, err = p.Write(wfd, []byte("in the pipe"))
		return errors.Join(err, p.SetFlags(wfd, kern.OWrite|kern.ONonblock))
	},
	kern.KindSocketUnix: func(w *world, p *kern.Proc) error {
		// A connection inside the group with a descriptor in flight: peer
		// and in-flight OIDs, and a listener.
		lfd, _ := p.Socket(kern.KindSocketUnix)
		cfd, _ := p.Socket(kern.KindSocketUnix)
		if err := errors.Join(p.Bind(lfd, "/sock"), p.Listen(lfd), p.Connect(cfd, "/sock")); err != nil {
			return err
		}
		if _, err := p.Accept(lfd); err != nil {
			return err
		}
		return p.SendFDs(cfd, []byte("ctl"), []int{lfd})
	},
	kern.KindSocketUDP: func(w *world, p *kern.Proc) error {
		fd, _ := p.Socket(kern.KindSocketUDP)
		ext := w.k.NewProc("ext")
		efd, _ := ext.Socket(kern.KindSocketUDP)
		err := errors.Join(p.Bind(fd, "10.0.0.1:53"), ext.Bind(efd, "10.0.0.9:9"), p.SetSockOpt(fd, 0xBEEF), p.SetES(fd, true))
		_, err2 := ext.SendTo(efd, "10.0.0.1:53", []byte("datagram"))
		return errors.Join(err, err2)
	},
	kern.KindSocketTCP: func(w *world, p *kern.Proc) error {
		// One connection to a listener outside the group (severed by a
		// restore), one inside it with bytes sent.
		ext := w.k.NewProc("ext")
		efd, _ := ext.Socket(kern.KindSocketTCP)
		out, _ := p.Socket(kern.KindSocketTCP)
		lfd, _ := p.Socket(kern.KindSocketTCP)
		cfd, _ := p.Socket(kern.KindSocketTCP)
		err := errors.Join(ext.Bind(efd, "10.0.0.9:80"), ext.Listen(efd), p.Bind(out, "10.0.0.1:999"), p.Connect(out, "10.0.0.9:80"),
			p.Bind(lfd, "10.0.0.1:80"), p.Listen(lfd), p.Connect(cfd, "10.0.0.1:80"))
		if err != nil {
			return err
		}
		if _, err := p.Accept(lfd); err != nil {
			return err
		}
		_, err = p.Write(cfd, []byte("stream"))
		return err
	},
	kern.KindShm: func(w *world, p *kern.Proc) error {
		_, err := p.ShmOpen("/seg", 1<<16)
		return err
	},
	kern.KindKqueue: func(w *world, p *kern.Proc) error {
		kq, err := p.Kqueue()
		return errors.Join(err,
			p.KeventAdd(kq, kern.Kevent{Ident: 1, Filter: kern.FilterUser, Flags: 2, FFlags: 3, Data: -4, UData: 5}),
			p.KeventAdd(kq, kern.Kevent{Ident: 7, Filter: kern.FilterRead}))
	},
	kern.KindPTY: func(w *world, p *kern.Proc) error {
		mfd, sfd, err := p.OpenPTY()
		if err != nil {
			return err
		}
		_, err = p.Write(mfd, []byte("to the slave"))
		_, err2 := p.Write(sfd, []byte("to the master"))
		return errors.Join(err, err2, p.SetTermios(sfd, [64]byte{1, 2, 3}))
	},
	kern.KindDevice: func(w *world, p *kern.Proc) error {
		_, err := p.OpenDevice(kern.DevNull)
		return err
	},
}

// descImage is what the store holds of one descriptor slot: the fields of the
// description's record and the record of the object it names.
type descImage struct {
	oid     objstore.OID
	kind    kern.ObjKind
	offset  int64
	flags   uint32
	implOID objstore.OID
	aux     uint32
	impl    string
}

// descImages reads every descriptor slot of p back from the store.
func descImages(t *testing.T, w *world, g *Group, p *kern.Proc) map[int]descImage {
	t.Helper()
	out := make(map[int]descImage)
	p.FDs.Each(func(fd int, f *kern.File) {
		im := descImage{oid: g.oidOf(f)}
		raw, err := w.store.GetRecord(im.oid)
		if err != nil {
			t.Fatalf("fd %d: description record %d: %v", fd, im.oid, err)
		}
		if ut, _ := w.store.UType(im.oid); ut != UTFileDesc {
			t.Fatalf("fd %d: description record %d has type %#x", fd, im.oid, ut)
		}
		d, err := rec.NewDecoder(raw)
		if err != nil {
			t.Fatal(err)
		}
		im.kind, im.offset, im.flags = kern.ObjKind(d.U16()), d.I64(), d.U32()
		im.implOID, im.aux = objstore.OID(d.U64()), d.U32()
		if d.Err() != nil || d.Remaining() != 0 {
			t.Fatalf("fd %d: description record: err %v, %d bytes left", fd, d.Err(), d.Remaining())
		}
		if im.kind != kern.KindVnode { // a vnode IS a store object: the file, not a record
			impl, err := w.store.GetRecord(im.implOID)
			if err != nil {
				t.Fatalf("fd %d: %v record %d: %v", fd, im.kind, im.implOID, err)
			}
			im.impl = string(impl)
		}
		out[fd] = im
	})
	return out
}

// TestRecordRoundTripPerKind: for every kern.ObjKind, build descriptions of
// that kind, checkpoint, crash, restore, and have a full checkpoint re-encode
// what restore built. The store must hold the bytes it held before — the
// equality restore priming already demands record by record — under the same
// OIDs. The one exception is the one priming has: a device comes back without
// its OID, so the full checkpoint files its record under a new one.
func TestRecordRoundTripPerKind(t *testing.T) {
	for _, kind := range objKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			build, ok := kindBuilders[kind]
			if !ok {
				t.Fatalf("kern.%v has no builder here: a new kind needs a writer, a reader and a case in this test", kind)
			}
			w := newWorld(t)
			p := w.k.NewProc("app")
			g := w.o.CreateGroup("app")
			if err := errors.Join(g.Attach(p), build(w, p)); err != nil {
				t.Fatal(err)
			}
			if _, err := g.Checkpoint(CkptIncremental); err != nil {
				t.Fatalf("no writer for %v: %v", kind, err)
			}
			if err := g.Barrier(); err != nil {
				t.Fatal(err)
			}
			before := descImages(t, w, g, p)
			found := false
			for _, im := range before {
				found = found || im.kind == kind
			}
			if !found {
				t.Fatalf("the builder opened no %v description", kind)
			}

			w2 := w.crash(t)
			g2, _, err := w2.o.RestoreGroup("app", w2.store, RestoreFull, true)
			if err != nil {
				t.Fatalf("no reader for %v: %v", kind, err)
			}
			p2 := g2.Procs()[0]
			p2.FDs.Each(func(fd int, f *kern.File) {
				im := before[fd]
				if f.Impl.Kind() != im.kind {
					t.Errorf("fd %d came back as %v, was %v", fd, f.Impl.Kind(), im.kind)
				}
				primed := im.kind != kern.KindDevice
				if _, ok := g2.trustedAt(im.oid); ok != primed {
					t.Errorf("fd %d (%v): description primed = %v, want %v", fd, im.kind, ok, primed)
				}
				gated := primed && im.kind != kern.KindVnode && im.kind != kern.KindShm
				if _, ok := g2.trustedAt(im.implOID); ok != gated {
					t.Errorf("fd %d (%v): object primed = %v, want %v", fd, im.kind, ok, gated)
				}
			})

			if _, err := g2.Checkpoint(CkptFull); err != nil {
				t.Fatal(err)
			}
			after := descImages(t, w2, g2, p2)
			if len(after) != len(before) {
				t.Fatalf("%d descriptor slots came back, %d were checkpointed", len(after), len(before))
			}
			for fd, b := range before {
				a := after[fd]
				if b.kind == kern.KindDevice {
					a.implOID = b.implOID
				}
				if a != b {
					t.Errorf("fd %d: re-encoded %+v, the store held %+v", fd, a, b)
				}
			}
		})
	}
}

// strangeFile is a description of a kind kern does not define.
type strangeFile struct{ kind kern.ObjKind }

func (s strangeFile) Kind() kern.ObjKind                  { return s.kind }
func (strangeFile) Read(*kern.File, []byte) (int, error)  { return 0, kern.ErrInvalid }
func (strangeFile) Write(*kern.File, []byte) (int, error) { return 0, kern.ErrInvalid }
func (strangeFile) CloseLast()                            {}

// TestUnknownKindHasNoWriter is the other half of completeness: the round
// trip shows every kind kern names has both a writer and a reader; a kind it
// does not name has neither. (The reader's refusal is
// TestRestoreCorruptRecords/file/kind.)
func TestUnknownKindHasNoWriter(t *testing.T) {
	kinds := objKinds()
	if last := kinds[len(kinds)-1]; last != kern.KindDevice {
		t.Fatalf("kern.%v is the last kind now: move TestRestoreCorruptRecords/file/kind past it", last)
	}
	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}
	p.FDs.Install(kern.NewFile(strangeFile{kern.KindDevice + 1}, kern.ORead))
	want := "sls: unsupported file kind ObjKind(0x19)"
	if _, err := g.Checkpoint(CkptIncremental); err == nil || err.Error() != want {
		t.Fatalf("checkpoint = %v, want %q", err, want)
	}
}

package aurora_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"testing"

	"aurora"
	"aurora/internal/kern"
	"aurora/internal/objstore"
	"aurora/internal/sls"
	"aurora/internal/vm"
)

// onDiskFormatSHA is the SHA-256 of the image the workload below leaves on
// the striped disks. It changes only when the on-disk format (or the submit
// sequence that lays it out) changes; a refactor must reproduce it exactly.
// Re-pinned when WAL frames began to carry the flight ring's tail instead of
// the ring (frame op 6) and an identical PutRecord stopped rewriting the record.
// Re-pinned when the collapse of the previous interval's shadows left the stop
// window: formatLogicalSHA did not move, and with every virtual time the flight
// ring carries zeroed (an event's instant, EvDevSettle's landing time and
// EvDevWrite's ordering token) the old and new images are byte-identical, so
// only those timestamps and the checksums over them moved.
const onDiskFormatSHA = "b2b0c34dd675df0dc8ec350c8df7afa86121ad78f7b3187259b18559731f1999"

// TestOnDiskFormatPinned drives every on-disk structure — inline records,
// paged objects with block-map chunks, a journal extent, WAL frames, folds,
// indexes and superblocks — from a fixed seed and pins the resulting image.
func TestOnDiskFormatPinned(t *testing.T) {
	m, err := aurora.NewMachine(aurora.Config{StorageBytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	p := m.Spawn("app")
	g, err := m.Attach("app", p)
	if err != nil {
		t.Fatal(err)
	}
	const pages = 400 // spans two block-map chunks
	va, err := p.Mmap(pages*vm.PageSize, aurora.ProtRead|aurora.ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	j, err := g.Journal("log", 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(14))
	var walCommits, folds int
	for i := 0; i < 300; i++ {
		switch r := rng.Intn(20); {
		case r < 10:
			pg := uint64(rng.Intn(pages))
			buf := make([]byte, 1+rng.Intn(64))
			rng.Read(buf)
			if err := p.WriteMem(va+pg*vm.PageSize, buf); err != nil {
				t.Fatal(err)
			}
		case r < 13:
			payload := make([]byte, 8+rng.Intn(200))
			rng.Read(payload)
			if _, err := j.Append(payload); err != nil {
				t.Fatal(err)
			}
		case r < 15:
			data := make([]byte, rng.Intn(9000))
			rng.Read(data)
			if err := m.Store.PutRecord(m.Store.NewOID(), 0x7e57, data); err != nil {
				t.Fatal(err)
			}
		case r < 18:
			st, err := g.Checkpoint(aurora.CkptWAL)
			if err != nil {
				t.Fatal(err)
			}
			if st.WALSeq != 0 {
				walCommits++
			}
		case r < 19:
			if _, err := g.Checkpoint(aurora.CkptIncremental); err != nil {
				t.Fatal(err)
			}
			folds++
		default:
			if _, err := g.Checkpoint(sls.CkptFull); err != nil {
				t.Fatal(err)
			}
			folds++
		}
	}
	// End on WAL frames over a folded base, so both are on the media.
	p.WriteMem(va, []byte("tail"))
	if _, err := g.Checkpoint(aurora.CkptWAL); err != nil {
		t.Fatal(err)
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}
	if walCommits < 10 || folds < 5 {
		t.Fatalf("workload too thin: %d WAL commits, %d folds", walCommits, folds)
	}

	// The logical image first: when only this one holds, the format is
	// intact and what moved is the layout or a virtual timestamp.
	if got := logicalImageDigest(t, m); got != formatLogicalSHA {
		t.Errorf("logical image SHA-256 = %s, want %s", got, formatLogicalSHA)
	}
	h := sha256.New()
	if err := m.SaveImage(h); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != onDiskFormatSHA {
		t.Fatalf("on-disk image SHA-256 = %s, want %s", got, onDiskFormatSHA)
	}
}

// The logical image is what a store holds, not where or when it put it: every
// live object in ascending OID order (OID, user type, then the record bytes, a
// memory object's size and present pages, or a journal's capacity and
// entries). The flight ring is commit metadata, not an object, so virtual
// timestamps do not reach these digests. A change to the virtual-time model moves
// onDiskFormatSHA and every scenario fingerprint and must leave these digests
// alone; a change to what a checkpoint captures moves these.
const (
	// formatLogicalSHA is TestOnDiskFormatPinned's workload: one process,
	// memory, a journal, loose records, no descriptors.
	formatLogicalSHA = "ab484c60e6ececc7101a2c8339836f250aa3b0d3a37d3db2d9a9de0b0b27dbbb"
	// posixLogicalSHA is TestLogicalImagePinned's primary before the crash,
	// posixRestoredLogicalSHA the same machine after a crash, a restore and
	// three more checkpoints.
	posixLogicalSHA         = "7eb27bb4f856af985f7eb9a8aab51b615a4829c5658f84ee0d52c66abec672d7"
	posixRestoredLogicalSHA = "d6c456e535d1324841af0e46d6451ad714cdc50022a2939525abb25dfac5578b"
)

func logicalImageDigest(t *testing.T, m *aurora.Machine) string {
	t.Helper()
	h := sha256.New()
	u64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	bytesOf := func(b []byte) { u64(uint64(len(b))); h.Write(b) }
	for _, oid := range m.Store.Objects() {
		ut, err := m.Store.UType(oid)
		if err != nil {
			t.Fatal(err)
		}
		u64(uint64(oid))
		u64(uint64(ut))
		if j, err := m.Store.OpenJournal(oid); err == nil {
			entries, err := j.Entries()
			if err != nil {
				t.Fatal(err)
			}
			u64(uint64(j.Capacity()))
			for _, e := range entries {
				u64(e.Seq)
				bytesOf(e.Payload)
			}
			continue
		} else if !errors.Is(err, objstore.ErrNotJournal) {
			t.Fatal(err)
		}
		if ut == sls.UTMemObject {
			size, err := m.Store.Size(oid)
			if err != nil {
				t.Fatal(err)
			}
			u64(uint64(size))
			if _, err := m.Store.EachPageBulk(oid, func(pg int64, data []byte) error {
				u64(uint64(pg))
				bytesOf(data)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		raw, err := m.Store.GetRecord(oid)
		if err != nil {
			t.Fatal(err)
		}
		bytesOf(raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// posixWorld is TestLogicalImagePinned's application: one process (and a
// forked child sharing its descriptions) holding one of every record-bearing
// kernel object, a second group whose sends into the first are held by
// external synchrony, and a process outside any group.
type posixWorld struct {
	t    *testing.T
	m    *aurora.Machine
	g    *aurora.Group // "app": what the digest is about
	peer *aurora.Group // "peer": sends into app, released by its own commits
	p, q *aurora.Proc  // app's and peer's processes
	ext  *aurora.Proc  // outside any group

	file, pipeR, pipeW, cli, srv, udp, kq, ptyM, ptyS int
	qudp, extudp                                      int
	mem, shm                                          uint64
	// What the blocking reads may take: bytes in the pipe, messages queued
	// on srv. The world has one goroutine, so an empty read would hang it.
	pipeN, srvN int
}

func must[T any](t *testing.T) func(T, error) T {
	return func(v T, err error) T {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

func newPosixWorld(t *testing.T, m *aurora.Machine) *posixWorld {
	t.Helper()
	w := &posixWorld{t: t, m: m}
	fd, va, gr := must[int](t), must[uint64](t), must[*aurora.Group](t)
	ok := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	w.p, w.q, w.ext = m.Spawn("app"), m.Spawn("peer"), m.Spawn("ext")
	w.g, w.peer = gr(m.Attach("app", w.p)), gr(m.Attach("peer", w.q))
	p := w.p

	w.file = fd(p.Open("/data", aurora.ORead|aurora.OWrite, true))
	fd(p.Write(w.file, []byte("first line\n")))
	w.pipeR, w.pipeW, _ = p.Pipe()
	w.pipeN = fd(p.Write(w.pipeW, []byte("in the pipe")))

	lfd := fd(p.Socket(aurora.SockTCP))
	ok(p.Bind(lfd, "10.0.0.1:80"))
	ok(p.Listen(lfd))
	w.cli = fd(p.Socket(aurora.SockTCP))
	ok(p.Bind(w.cli, "10.0.0.1:4000"))
	ok(p.Connect(w.cli, "10.0.0.1:80"))
	w.srv = fd(p.Accept(lfd))
	fd(p.Write(w.cli, []byte("GET /")))
	w.srvN = 1

	// A UNIX pair with a descriptor in flight inside the buffer.
	ul := fd(p.Socket(kern.KindSocketUnix))
	ok(p.Bind(ul, "/run/app.sock"))
	ok(p.Listen(ul))
	uc := fd(p.Socket(kern.KindSocketUnix))
	ok(p.Connect(uc, "/run/app.sock"))
	fd(p.Accept(ul))
	ok(p.SendFDs(uc, []byte("take this"), []int{w.pipeR}))

	w.udp = fd(p.Socket(kern.KindSocketUDP))
	ok(p.Bind(w.udp, "10.0.0.1:53"))
	w.qudp = fd(w.q.Socket(kern.KindSocketUDP))
	ok(w.q.Bind(w.qudp, "10.0.0.2:53"))
	w.extudp = fd(w.ext.Socket(kern.KindSocketUDP))
	ok(w.ext.Bind(w.extudp, "10.0.0.9:53"))

	w.kq = fd(p.Kqueue())
	for i := 0; i < 5; i++ {
		ok(p.KeventAdd(w.kq, kern.Kevent{Ident: uint64(i), Filter: kern.FilterUser, UData: uint64(100 + i)}))
	}
	w.ptyM, w.ptyS, _ = p.OpenPTY()
	fd(p.Write(w.ptyM, []byte("ls\n")))
	fd(p.OpenDevice(kern.DevNull))

	sfd := fd(p.ShmOpen("/seg", 4*vm.PageSize))
	w.shm = va(p.MmapShm(sfd, aurora.ProtRead|aurora.ProtWrite))
	ok(p.WriteMem(w.shm, []byte("shared")))
	id, err := p.ShmGet(0x51, 2*vm.PageSize)
	ok(err)
	va(p.ShmAt(id, aurora.ProtRead|aurora.ProtWrite))
	w.mem = va(p.Mmap(32*vm.PageSize, aurora.ProtRead|aurora.ProtWrite, false))
	p.Fork()
	return w
}

// step applies one seeded mutation; about a third of the steps touch nothing,
// so most objects sit idle across most checkpoints, as a server's do.
func (w *posixWorld) step(rng *rand.Rand) {
	t, p := w.t, w.p
	t.Helper()
	n, ok := must[int](t), func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 1+rng.Intn(40))
	rng.Read(buf)
	switch rng.Intn(16) {
	case 0:
		n(p.Write(w.file, buf))
	case 1:
		must[int64](t)(p.Lseek(w.file, int64(rng.Intn(8))))
	case 2:
		w.pipeN += n(p.Write(w.pipeW, buf))
	case 3:
		if w.pipeN > 0 {
			w.pipeN -= n(p.Read(w.pipeR, buf))
		}
	case 4:
		n(p.Write(w.cli, buf))
		w.srvN++
	case 5:
		if w.srvN > 0 {
			n(p.Read(w.srv, make([]byte, 64)))
			w.srvN--
		}
	case 6: // into app from another group: held until peer's commit is durable
		n(w.q.SendTo(w.qudp, "10.0.0.1:53", buf))
		_, err := w.peer.Checkpoint(aurora.CkptIncremental)
		ok(err)
		if rng.Intn(2) == 0 {
			ok(w.peer.Barrier()) // delivers now; otherwise at peer's next commit
		}
	case 7: // out of app: held until app's next commit is durable
		n(p.SendTo(w.udp, "10.0.0.9:53", buf))
	case 8: // into app from outside any group: delivered at once
		n(w.ext.SendTo(w.extudp, "10.0.0.1:53", buf))
	case 9:
		ok(p.KeventAdd(w.kq, kern.Kevent{Ident: uint64(rng.Intn(1000)), Filter: kern.FilterTimer, Data: int64(len(buf))}))
	case 10:
		n(p.Write(w.ptyS, buf))
	case 11:
		ok(w.g.FdCtl(p, w.udp, rng.Intn(2) == 0))
	case 12:
		ok(p.WriteMem(w.mem+uint64(rng.Intn(32))*vm.PageSize, buf))
		ok(p.WriteMem(w.shm, buf))
	}
}

// TestLogicalImagePinned pins what checkpoints capture of every kind of
// kernel object — through all four checkpoint kinds, idle and busy intervals,
// deliveries deferred by external synchrony, a crash, a restore and the
// checkpoints after it — independently of the virtual-time model.
func TestLogicalImagePinned(t *testing.T) {
	m, err := aurora.NewMachine(aurora.Config{StorageBytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	w := newPosixWorld(t, m)
	rng := rand.New(rand.NewSource(21))
	kinds := []aurora.CheckpointKind{
		aurora.CkptIncremental, aurora.CkptIncremental, aurora.CkptWAL, aurora.CkptWAL,
		aurora.CkptWAL, sls.CkptMemOnly, sls.CkptFull,
	}
	run := func(w *posixWorld, rounds int) {
		t.Helper()
		for i := 0; i < rounds; i++ {
			for j := rng.Intn(4); j > 0; j-- {
				w.step(rng)
			}
			if _, err := w.g.Checkpoint(kinds[rng.Intn(len(kinds))]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := w.g.Checkpoint(aurora.CkptIncremental); err != nil {
			t.Fatal(err)
		}
		if err := w.g.Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	run(w, 60)
	held := map[uint16]bool{}
	for _, oid := range m.Store.Objects() {
		ut, _ := m.Store.UType(oid)
		held[ut] = true
	}
	for _, ut := range []uint16{sls.UTProc, sls.UTFileDesc, sls.UTPipe, sls.UTSocket, sls.UTShm, sls.UTKqueue, sls.UTPTY, sls.UTDeviceFile, sls.UTMemObject} {
		if !held[ut] {
			t.Fatalf("workload too thin: the image holds no object of user type %#x", ut)
		}
	}
	if got := logicalImageDigest(t, m); got != posixLogicalSHA {
		t.Errorf("logical image SHA-256 = %s, want %s", got, posixLogicalSHA)
	}

	// The crash takes both groups down; app comes back alone and keeps going
	// on the descriptors it had.
	m2, err := m.Crash()
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := m2.Restore("app")
	if err != nil {
		t.Fatal(err)
	}
	w2 := *w
	w2.m, w2.g, w2.p = m2, g2, g2.Procs()[0]
	w2.q, w2.ext = m2.Spawn("peer"), m2.Spawn("ext")
	if w2.peer, err = m2.Attach("peer2", w2.q); err != nil {
		t.Fatal(err)
	}
	fd := must[int](t)
	w2.qudp = fd(w2.q.Socket(kern.KindSocketUDP))
	w2.extudp = fd(w2.ext.Socket(kern.KindSocketUDP))
	if err := errors.Join(w2.q.Bind(w2.qudp, "10.0.0.2:53"), w2.ext.Bind(w2.extudp, "10.0.0.9:53")); err != nil {
		t.Fatal(err)
	}
	run(&w2, 20)
	if got := logicalImageDigest(t, m2); got != posixRestoredLogicalSHA {
		t.Errorf("post-restore logical image SHA-256 = %s, want %s", got, posixRestoredLogicalSHA)
	}
	if rep := m2.Audit(); !rep.OK() {
		t.Fatal(rep)
	}
}

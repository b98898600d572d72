package kern

import "testing"

// holdES is an ESHook that captures every delivery until release.
type holdES struct{ held []func() }

func (h *holdES) Hold(group uint64, deliver func()) bool {
	h.held = append(h.held, deliver)
	return true
}

// TestEveryRecordedMutationBumps drives each syscall that changes a field a
// store record holds and requires the generation of the object behind that
// record to move — the positive half of the capture gate's contract (the
// oracle in internal/audit is the other half).
func TestEveryRecordedMutationBumps(t *testing.T) {
	k := newKernel(t)
	p := k.NewProc("p")
	p.GroupID = 1
	out := k.NewProc("out") // in no group: sends from p to it are cross-group
	es := &holdES{}
	k.ES = es

	file := func(fd int) *File { f, _ := p.FDs.Get(fd); return f }
	behind := func(fd int) any { obj, _ := file(fd).Behind(); return obj }
	sock := func(pr *Proc, fd int) *Socket { s, _ := pr.Sock(fd); return s }
	ok := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	vfd, err := p.Open("/f", ORead|OWrite, true)
	ok(err)
	rfd, wfd, err := p.Pipe()
	ok(err)
	pipe := behind(rfd).(*Pipe)
	kfd, err := p.Kqueue()
	ok(err)
	kq := behind(kfd).(*Kqueue)
	mfd, sfd, err := p.OpenPTY()
	ok(err)
	pty := behind(mfd).(*PTY)

	lfd, _ := p.Socket(KindSocketTCP)
	cfd, _ := p.Socket(KindSocketTCP)
	ufd, _ := p.Socket(KindSocketUDP)
	ofd, _ := out.Socket(KindSocketUDP)
	ok(out.Bind(ofd, "10.0.0.9:9"))
	if err := out.SetFlags(ofd, ORead|OWrite|ONonblock); err != nil {
		t.Fatal(err)
	}

	steps := []struct {
		name string
		obj  interface{ Generation() uint64 }
		do   func()
	}{
		{"file write moves the offset", file(vfd), func() { p.Write(vfd, []byte("abc")) }},
		{"file read moves the offset", file(vfd), func() { p.Lseek(vfd, 0); p.Read(vfd, make([]byte, 2)) }},
		{"lseek", file(vfd), func() { p.Lseek(vfd, 1) }},
		{"fcntl(F_SETFL)", file(vfd), func() { ok(p.SetFlags(vfd, ORead|OWrite|OAppend)) }},
		{"pipe write", pipe, func() { p.Write(wfd, []byte("xy")) }},
		{"pipe read", pipe, func() { p.Read(rfd, make([]byte, 1)) }},
		{"pipe end close", pipe, func() { ok(p.Close(wfd)) }},
		{"kevent add", kq, func() { ok(p.KeventAdd(kfd, Kevent{Ident: 1, Filter: FilterUser})) }},
		{"kqueue close", kq, func() { ok(p.Close(kfd)) }},
		{"pty write", pty, func() { p.Write(mfd, []byte("ls\n")) }},
		{"pty read", pty, func() { p.Read(sfd, make([]byte, 2)) }},
		{"tcsetattr", pty, func() { ok(p.SetTermios(sfd, [64]byte{1})) }},
		{"bind", sock(p, lfd), func() { ok(p.Bind(lfd, "10.0.0.1:80")) }},
		{"listen", sock(p, lfd), func() { ok(p.Listen(lfd)) }},
		{"connect", sock(p, cfd), func() { ok(p.Connect(cfd, "10.0.0.1:80")) }},
		{"connected-UDP connect", sock(p, ufd), func() { ok(p.Connect(ufd, "10.0.0.9:9")) }},
		{"sls_fdctl", sock(p, ufd), func() { ok(p.SetES(ufd, true)); ok(p.SetES(ufd, false)) }},
		{"setsockopt", sock(p, ufd), func() { ok(p.SetSockOpt(ufd, 7)) }},
		{"send advances the sender's sequence", sock(p, ufd), func() { p.Write(ufd, []byte("held")) }},
	}
	for _, s := range steps {
		before := s.obj.Generation()
		s.do()
		if s.obj.Generation() == before {
			t.Errorf("%s: generation stayed at %d", s.name, before)
		}
	}

	// The send above was held by external synchrony: the receiver's queue, and
	// so its generation, moves when the delivery runs and not before.
	dst := sock(out, ofd)
	if len(es.held) != 1 {
		t.Fatalf("%d deliveries held, want 1", len(es.held))
	}
	if n, err := out.Read(ofd, make([]byte, 8)); n != 0 || err == nil {
		t.Fatalf("held message already readable (%d bytes, err %v)", n, err)
	}
	before := dst.Generation()
	k.Gate.Enter()
	es.held[0]()
	k.Gate.Exit()
	if dst.Generation() == before {
		t.Errorf("deferred delivery: receiver's generation stayed at %d", before)
	}
	before = dst.Generation()
	if n, _ := out.Read(ofd, make([]byte, 8)); n != 4 {
		t.Fatalf("read %d bytes after release, want 4", n)
	}
	if dst.Generation() == before {
		t.Errorf("recv: generation stayed at %d", before)
	}
}

package kern

// Pseudoterminals: a master/slave pair of byte streams with a line
// discipline stub. Restoring a pty must recreate the virtual device in the
// device file system, whose locking makes pty restore the slowest row of
// Table 4.

// PTY is the shared terminal object.
type PTY struct {
	gen
	k *Kernel
	// Index is the devfs unit number (pts/N).
	Index int
	// toSlave buffers master->slave bytes; toMaster the reverse.
	toSlave  []byte
	toMaster []byte
	// termios is an opaque blob standing in for termios state; it changes
	// through SetTermios.
	termios [64]byte
	closed  bool
}

// ptyEnd is one side's FileImpl.
type ptyEnd struct {
	pty    *PTY
	master bool
}

var _ FileImpl = (*ptyEnd)(nil)

func (e *ptyEnd) Kind() ObjKind { return KindPTY }

func (e *ptyEnd) Read(f *File, p []byte) (int, error) {
	buf := &e.pty.toSlave
	if e.master {
		buf = &e.pty.toMaster
	}
	if len(*buf) == 0 {
		if e.pty.closed {
			return 0, nil
		}
		if f.flags&ONonblock != 0 {
			return 0, ErrWouldBlock
		}
		ok := e.pty.k.Gate.Sleep(func() bool { return len(*buf) > 0 || e.pty.closed })
		if !ok {
			return 0, errRestart
		}
	}
	n := copy(p, *buf)
	*buf = (*buf)[n:]
	e.pty.bump(e.pty.k)
	return n, nil
}

func (e *ptyEnd) Write(f *File, p []byte) (int, error) {
	if e.pty.closed {
		return 0, ErrPipeClosed
	}
	if e.master {
		e.pty.toSlave = append(e.pty.toSlave, p...)
	} else {
		e.pty.toMaster = append(e.pty.toMaster, p...)
	}
	e.pty.bump(e.pty.k)
	e.pty.k.Gate.Broadcast()
	return len(p), nil
}

func (e *ptyEnd) CloseLast() {
	e.pty.closed = true
	e.pty.k.Gate.Broadcast()
}

// OpenPTY allocates a pseudoterminal pair, returning (master, slave).
func (p *Proc) OpenPTY() (int, int, error) {
	var mfd, sfd int
	err := p.k.syscall(func() error {
		k := p.k
		idx := k.nextPTY
		k.nextPTY++
		pty := &PTY{k: k, Index: idx}
		mfd = p.FDs.Install(NewFile(&ptyEnd{pty: pty, master: true}, ORead|OWrite))
		sfd = p.FDs.Install(NewFile(&ptyEnd{pty: pty}, ORead|OWrite))
		return nil
	})
	return mfd, sfd, err
}

// SetTermios replaces the terminal attributes — tcsetattr.
func (p *Proc) SetTermios(fd int, termios [64]byte) error {
	return p.k.syscall(func() error {
		pty, err := behindFD[*PTY](p, fd, ErrInvalid)
		if err != nil {
			return err
		}
		pty.termios = termios
		pty.bump(p.k)
		return nil
	})
}

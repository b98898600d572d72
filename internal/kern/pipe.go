package kern

// Pipes: a bounded in-kernel byte buffer with blocking semantics on both
// ends. Blocking reads and writes sleep on the gate, so a quiesce
// transparently interrupts and restarts them.

// PipeCapacity matches the traditional 64 KiB pipe buffer.
const PipeCapacity = 64 << 10

// Pipe is the shared pipe object; the two descriptor ends reference it.
type Pipe struct {
	gen
	k          *Kernel
	buf        []byte
	readersRef int32
	writersRef int32
}

// pipeEnd is the FileImpl for one end.
type pipeEnd struct {
	p     *Pipe
	write bool
}

var _ FileImpl = (*pipeEnd)(nil)

func (e *pipeEnd) Kind() ObjKind { return KindPipe }

func (e *pipeEnd) Read(f *File, buf []byte) (int, error) {
	if e.write {
		return 0, ErrInvalid
	}
	p := e.p
	if len(p.buf) == 0 {
		if p.writersRef == 0 {
			return 0, nil // EOF
		}
		if f.flags&ONonblock != 0 {
			return 0, ErrWouldBlock
		}
		ok := p.k.Gate.Sleep(func() bool { return len(p.buf) > 0 || p.writersRef == 0 })
		if !ok {
			return 0, errRestart
		}
		if len(p.buf) == 0 {
			return 0, nil // writers gone: EOF
		}
	}
	n := copy(buf, p.buf)
	p.buf = p.buf[n:]
	p.bump()
	p.k.Gate.Broadcast() // wake writers waiting for space
	return n, nil
}

func (e *pipeEnd) Write(f *File, buf []byte) (int, error) {
	if !e.write {
		return 0, ErrInvalid
	}
	p := e.p
	if p.readersRef == 0 {
		return 0, ErrPipeClosed
	}
	total := 0
	for len(buf) > 0 {
		space := PipeCapacity - len(p.buf)
		if space == 0 {
			if f.flags&ONonblock != 0 {
				if total > 0 {
					return total, nil
				}
				return 0, ErrWouldBlock
			}
			ok := p.k.Gate.Sleep(func() bool {
				return PipeCapacity-len(p.buf) > 0 || p.readersRef == 0
			})
			if !ok {
				if total > 0 {
					// Partial writes stand; restart would duplicate.
					return total, nil
				}
				return 0, errRestart
			}
			if p.readersRef == 0 {
				return total, ErrPipeClosed
			}
			space = PipeCapacity - len(p.buf)
		}
		n := len(buf)
		if n > space {
			n = space
		}
		p.buf = append(p.buf, buf[:n]...)
		p.bump()
		buf = buf[n:]
		total += n
		p.k.Gate.Broadcast() // wake readers
	}
	return total, nil
}

func (e *pipeEnd) CloseLast() {
	if e.write {
		e.p.writersRef--
	} else {
		e.p.readersRef--
	}
	e.p.bump()
	e.p.k.Gate.Broadcast()
}

// Buffered returns the bytes currently in the pipe (checkpoint path).
func (p *Pipe) Buffered() []byte { return append([]byte(nil), p.buf...) }

// Pipe creates a pipe, returning the read and write descriptors.
func (p *Proc) Pipe() (int, int, error) {
	var rfd, wfd int
	err := p.k.syscall(func() error {
		pipe := &Pipe{k: p.k, readersRef: 1, writersRef: 1}
		rfd = p.FDs.Install(NewFile(&pipeEnd{p: pipe}, ORead))
		wfd = p.FDs.Install(NewFile(&pipeEnd{p: pipe, write: true}, OWrite))
		return nil
	})
	return rfd, wfd, err
}

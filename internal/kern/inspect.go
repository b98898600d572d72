package kern

// Inspection helpers for the SLS orchestrator: Aurora gathers state by
// directly inspecting kernel objects (§5.1), so the checkpoint path needs
// typed access to the implementation behind each open-file description.

// Behind returns what is behind a description: the object — a *VnodeFile,
// *Pipe, *Socket, *ShmSegment, *Kqueue, *PTY or *Device, nil for an
// implementation kern does not define — and the auxiliary word that with the
// object makes the description, 1 for a pipe's write end and a pty's master
// side. RestoreFile is its inverse.
func (f *File) Behind() (obj any, aux uint32) {
	switch e := f.Impl.(type) {
	case *VnodeFile:
		return e, 0
	case *pipeEnd:
		if e.write {
			aux = 1
		}
		return e.p, aux
	case *socketFile:
		return e.s, 0
	case *shmFile:
		return e.seg, 0
	case *kqueueFile:
		return e.kq, 0
	case *ptyEnd:
		if e.master {
			aux = 1
		}
		return e.pty, aux
	case *Device:
		return e, 0
	}
	return nil, 0
}

// behindFD resolves a descriptor to the object of type T behind its
// description, failing with mismatch when something else is.
func behindFD[T any](p *Proc, fd int, mismatch error) (T, error) {
	var zero T
	f, err := p.FDs.Get(fd)
	if err != nil {
		return zero, err
	}
	obj, _ := f.Behind()
	if t, ok := obj.(T); ok {
		return t, nil
	}
	return zero, mismatch
}

// Message is one buffered socket message exposed for checkpointing.
type Message struct {
	Data  []byte
	From  string
	Files []*File
}

// Messages snapshots the socket's receive queue, preserving datagram
// boundaries and in-flight descriptors.
func (s *Socket) Messages() []Message {
	out := make([]Message, 0, len(s.recvQ))
	for _, m := range s.recvQ {
		out = append(out, Message{Data: append([]byte(nil), m.data...), From: m.from, Files: m.files})
	}
	return out
}

// Peer returns the connected peer socket, if any.
func (s *Socket) Peer() *Socket { return s.peer }

// Buffers returns the pty's pending byte streams (toSlave, toMaster).
func (p *PTY) Buffers() ([]byte, []byte) {
	return append([]byte(nil), p.toSlave...), append([]byte(nil), p.toMaster...)
}

// Termios returns the terminal attributes blob (SetTermios).
func (p *PTY) Termios() [64]byte { return p.termios }

// PipeRefs reports the reader/writer end reference counts.
func (p *Pipe) PipeRefs() (readers, writers int32) { return p.readersRef, p.writersRef }

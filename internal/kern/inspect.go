package kern

// Inspection helpers for the SLS orchestrator: Aurora gathers state by
// directly inspecting kernel objects (§5.1), so the checkpoint path needs
// typed access to the implementation behind each open-file description.

// PipeInfo returns the pipe and end direction behind a description.
func PipeInfo(f *File) (p *Pipe, writeEnd bool, ok bool) {
	e, ok := f.Impl.(*pipeEnd)
	if !ok {
		return nil, false, false
	}
	return e.p, e.write, true
}

// SocketOf returns the socket behind a description.
func SocketOf(f *File) (*Socket, bool) {
	sf, ok := f.Impl.(*socketFile)
	if !ok {
		return nil, false
	}
	return sf.s, true
}

// ShmOf returns the shared-memory segment behind a description.
func ShmOf(f *File) (*ShmSegment, bool) {
	sf, ok := f.Impl.(*shmFile)
	if !ok {
		return nil, false
	}
	return sf.seg, true
}

// KqueueOf returns the kqueue behind a description.
func KqueueOf(f *File) (*Kqueue, bool) {
	kf, ok := f.Impl.(*kqueueFile)
	if !ok {
		return nil, false
	}
	return kf.kq, true
}

// PTYInfo returns the pty and side behind a description.
func PTYInfo(f *File) (p *PTY, master bool, ok bool) {
	e, ok := f.Impl.(*ptyEnd)
	if !ok {
		return nil, false, false
	}
	return e.pty, e.master, true
}

// DeviceOf returns the device node behind a description.
func DeviceOf(f *File) (*Device, bool) {
	d, ok := f.Impl.(*Device)
	return d, ok
}

// VnodeOf returns the vnode file behind a description.
func VnodeOf(f *File) (*VnodeFile, bool) {
	v, ok := f.Impl.(*VnodeFile)
	return v, ok
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

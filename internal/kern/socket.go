package kern

import (
	"fmt"
	"time"
)

// Sockets: UNIX domain, UDP, and TCP (§5.3). All three share one in-kernel
// implementation — buffered message queues between endpoints — differing in
// addressing, connection setup, and what gets checkpointed:
//
//   - UNIX sockets additionally carry control messages with in-flight file
//     descriptors, which the checkpoint must parse and persist.
//   - TCP listening sockets are checkpointed without their accept queue
//     (clients observe a dropped SYN and retry); established connections
//     save the 5-tuple, sequence numbers, options, and buffers.
//
// External synchrony: sends from a process inside a consistency group to a
// destination outside it are handed to the ES hook, which buffers them
// until the covering checkpoint persists.

// sockMsg is one queued message.
type sockMsg struct {
	data  []byte
	from  string
	files []*File // in-flight descriptors (UNIX control messages)
}

// ESHook is the orchestrator's external-synchrony interception point.
type ESHook interface {
	// Hold returns true if the delivery was captured and will run when
	// the group's next checkpoint persists; false delivers immediately.
	Hold(group uint64, deliver func()) bool
}

// Socket is the kernel socket object. Its exported fields are for the
// checkpoint and restore paths to read; inside a running kernel they change
// only under a syscall that bumps the generation (Bind, Connect). What send,
// SetES and SetSockOpt change is behind read accessors.
type Socket struct {
	gen
	k    *Kernel
	kind ObjKind

	Local  string
	Remote string
	// Bound records an explicit bind(2): only bound sockets occupy the
	// kernel address registry (accepted connections share the listener's
	// local address without registering).
	Bound bool

	OwnerGroup uint64 // consistency group of the creating process
	esDisabled bool   // sls_fdctl (SetES): opt this connection out of ES

	recvQ     []sockMsg
	peer      *Socket
	listening bool
	acceptQ   []*Socket
	closed    bool

	seq     uint64 // TCP sequence proxy (bytes sent)
	options uint32 // opaque socket options blob
}

// Seq returns the TCP sequence proxy: the bytes this socket has sent.
func (s *Socket) Seq() uint64 { return s.seq }

// Options returns the opaque socket options blob (SetSockOpt).
func (s *Socket) Options() uint32 { return s.options }

// ESDisabled reports whether sls_fdctl opted the socket out of external
// synchrony (SetES).
func (s *Socket) ESDisabled() bool { return s.esDisabled }

// socketFile is the descriptor-facing wrapper.
type socketFile struct{ s *Socket }

var _ FileImpl = (*socketFile)(nil)

func (sf *socketFile) Kind() ObjKind { return sf.s.kind }

func (sf *socketFile) Read(f *File, p []byte) (int, error) {
	return sf.s.recv(f, p, nil)
}

func (sf *socketFile) Write(f *File, p []byte) (int, error) {
	return sf.s.send(f, p, nil)
}

func (sf *socketFile) CloseLast() {
	s := sf.s
	s.closed = true
	if s.peer != nil {
		s.peer.k.Gate.Broadcast()
	}
	if s.Bound {
		s.k.unbind(s.Local, s)
	}
}

// Sock returns the socket behind a descriptor.
func (p *Proc) Sock(fd int) (*Socket, error) {
	return behindFD[*Socket](p, fd, ErrNotSocket)
}

// bind registers a socket address. Guarded by the BKL (all socket calls are
// syscalls).
func (k *Kernel) bind(addr string, s *Socket) error {
	if k.bounds == nil {
		k.bounds = make(map[string]*Socket)
	}
	if _, ok := k.bounds[addr]; ok {
		return fmt.Errorf("%w: address %s in use", ErrInvalid, addr)
	}
	k.bounds[addr] = s
	return nil
}

func (k *Kernel) unbind(addr string, s *Socket) {
	if k.bounds[addr] == s {
		delete(k.bounds, addr)
	}
}

// Socket creates a socket descriptor of the given kind.
func (p *Proc) Socket(kind ObjKind) (int, error) {
	switch kind {
	case KindSocketUnix, KindSocketUDP, KindSocketTCP:
	default:
		return -1, ErrInvalid
	}
	var fd int
	err := p.k.syscall(func() error {
		s := &Socket{k: p.k, kind: kind, OwnerGroup: p.GroupID}
		fd = p.FDs.Install(NewFile(&socketFile{s: s}, ORead|OWrite))
		return nil
	})
	return fd, err
}

// Bind attaches a local address.
func (p *Proc) Bind(fd int, addr string) error {
	return p.k.syscall(func() error {
		s, err := p.Sock(fd)
		if err != nil {
			return err
		}
		if err := p.k.bind(addr, s); err != nil {
			return err
		}
		s.Local = addr
		s.Bound = true
		s.bump()
		return nil
	})
}

// Listen marks a TCP or UNIX socket as accepting.
func (p *Proc) Listen(fd int) error {
	return p.k.syscall(func() error {
		s, err := p.Sock(fd)
		if err != nil {
			return err
		}
		if s.kind == KindSocketUDP {
			return ErrInvalid
		}
		s.listening = true
		s.bump()
		return nil
	})
}

// Connect establishes a connection to a listening socket (same kernel) and
// completes the handshake, charging a network round trip.
func (p *Proc) Connect(fd int, addr string) error {
	return p.k.syscall(func() error {
		s, err := p.Sock(fd)
		if err != nil {
			return err
		}
		if s.kind == KindSocketUDP {
			s.Remote = addr // connected UDP: just a default destination
			s.bump()
			return nil
		}
		l, ok := p.k.bounds[addr]
		if !ok || !l.listening {
			return fmt.Errorf("%w: connection refused to %s", ErrInvalid, addr)
		}
		// Server-side endpoint enters the accept queue.
		srv := &Socket{
			k:          p.k,
			kind:       s.kind,
			Local:      addr,
			Remote:     s.Local,
			OwnerGroup: l.OwnerGroup,
			peer:       s,
		}
		s.peer = srv
		s.Remote = addr
		s.bump()
		l.acceptQ = append(l.acceptQ, srv)
		p.k.Clk.Advance(p.k.Costs.NetSetupRTT)
		p.k.Gate.Broadcast()
		return nil
	})
}

// Accept dequeues an established connection, blocking until one arrives.
func (p *Proc) Accept(fd int) (int, error) {
	var nfd int
	err := p.k.syscall(func() error {
		l, err := p.Sock(fd)
		if err != nil {
			return err
		}
		if !l.listening {
			return ErrInvalid
		}
		f, _ := p.FDs.Get(fd)
		if len(l.acceptQ) == 0 {
			if f.flags&ONonblock != 0 {
				return ErrWouldBlock
			}
			if !p.k.Gate.Sleep(func() bool { return len(l.acceptQ) > 0 }) {
				return errRestart
			}
		}
		srv := l.acceptQ[0]
		l.acceptQ = l.acceptQ[1:]
		nfd = p.FDs.Install(NewFile(&socketFile{s: srv}, ORead|OWrite))
		return nil
	})
	return nfd, err
}

// AcceptQueueLen reports pending, un-accepted connections (tests).
func (p *Proc) AcceptQueueLen(fd int) int {
	n := 0
	p.k.syscall(func() error { //nolint:errcheck
		if s, err := p.Sock(fd); err == nil {
			n = len(s.acceptQ)
		}
		return nil
	})
	return n
}

// send delivers to the peer (stream) or to a bound address (datagram),
// applying external synchrony for cross-group traffic. Requires the BKL.
func (s *Socket) send(f *File, data []byte, files []*File) (int, error) {
	msg := sockMsg{data: append([]byte(nil), data...), from: s.Local, files: files}
	var dst *Socket
	switch {
	case s.peer != nil:
		dst = s.peer
	case s.Remote != "":
		d, ok := s.k.bounds[s.Remote]
		if !ok {
			return 0, fmt.Errorf("%w: no receiver at %s", ErrInvalid, s.Remote)
		}
		dst = d
	default:
		return 0, fmt.Errorf("%w: socket not connected", ErrInvalid)
	}
	if dst.closed {
		return 0, ErrPipeClosed
	}
	s.seq += uint64(len(data))
	s.bump()
	k := s.k
	// deliver runs now or, held by external synchrony, under the BKL after a
	// later checkpoint of the sender's group is durable — possibly after a
	// checkpoint of the receiver's. The receiver's generation therefore moves
	// here, where its queue does, and not at the entry of the syscall.
	deliver := func() {
		dst.recvQ = append(dst.recvQ, msg)
		dst.bump()
		// Record/replay tap: external input entering a persistent group
		// through a bound socket is logged for bounded replay.
		if k.RecordInput != nil && dst.OwnerGroup != 0 && dst.OwnerGroup != s.OwnerGroup && dst.Bound {
			k.RecordInput(dst.OwnerGroup, dst.Local, msg.data, msg.from)
		}
		k.Gate.Broadcast()
	}
	// External synchrony: cross-group sends wait for the checkpoint.
	if s.OwnerGroup != 0 && dst.OwnerGroup != s.OwnerGroup && !s.esDisabled && k.ES != nil {
		if k.ES.Hold(s.OwnerGroup, deliver) {
			return len(data), nil // queued, not yet on the wire
		}
	}
	k.Clk.Advance(k.Costs.NetRTT/2 + time.Duration(len(data))*k.Costs.NetPerByte)
	deliver()
	return len(data), nil
}

// recv dequeues one message, blocking as needed. Files travel out via
// outFiles when non-nil (UNIX control messages).
func (s *Socket) recv(f *File, buf []byte, outFiles *[]*File) (int, error) {
	if len(s.recvQ) == 0 {
		if s.closed || (s.peer != nil && s.peer.closed) {
			return 0, nil // EOF
		}
		if f.flags&ONonblock != 0 {
			return 0, ErrWouldBlock
		}
		ok := s.k.Gate.Sleep(func() bool {
			return len(s.recvQ) > 0 || s.closed || (s.peer != nil && s.peer.closed)
		})
		if !ok {
			return 0, errRestart
		}
		if len(s.recvQ) == 0 {
			return 0, nil // EOF
		}
	}
	msg := s.recvQ[0]
	s.bump()
	n := copy(buf, msg.data)
	if n < len(msg.data) && s.kind == KindSocketTCP {
		// Stream semantics: leave the remainder queued.
		s.recvQ[0].data = msg.data[n:]
	} else {
		s.recvQ = s.recvQ[1:]
	}
	if outFiles != nil {
		*outFiles = msg.files
	}
	return n, nil
}

// SendTo sends a datagram to an explicit address (UDP).
func (p *Proc) SendTo(fd int, addr string, data []byte) (int, error) {
	var n int
	err := p.k.syscall(func() error {
		s, err := p.Sock(fd)
		if err != nil {
			return err
		}
		old := s.Remote
		s.Remote = addr
		f, _ := p.FDs.Get(fd)
		n, err = s.send(f, data, nil)
		s.Remote = old
		return err
	})
	return n, err
}

// SetES enables or disables external synchrony on a socket — the kernel half
// of sls_fdctl. It runs under the BKL like the sends that read the flag.
func (p *Proc) SetES(fd int, disabled bool) error {
	return p.k.syscall(func() error {
		s, err := p.Sock(fd)
		if err != nil {
			return err
		}
		s.esDisabled = disabled
		s.bump()
		return nil
	})
}

// SetSockOpt replaces the socket's options blob — setsockopt.
func (p *Proc) SetSockOpt(fd int, options uint32) error {
	return p.k.syscall(func() error {
		s, err := p.Sock(fd)
		if err != nil {
			return err
		}
		s.options = options
		s.bump()
		return nil
	})
}

// SendFDs sends data plus descriptors over a UNIX socket (SCM_RIGHTS).
func (p *Proc) SendFDs(fd int, data []byte, fds []int) error {
	return p.k.syscall(func() error {
		s, err := p.Sock(fd)
		if err != nil {
			return err
		}
		if s.kind != KindSocketUnix {
			return ErrInvalid
		}
		files := make([]*File, 0, len(fds))
		for _, sent := range fds {
			sf, err := p.FDs.Get(sent)
			if err != nil {
				return err
			}
			sf.Ref() // the in-flight message holds a reference
			files = append(files, sf)
		}
		f, _ := p.FDs.Get(fd)
		_, err = s.send(f, data, files)
		return err
	})
}

// RecvFDs receives data and any passed descriptors, installing them.
func (p *Proc) RecvFDs(fd int, buf []byte) (int, []int, error) {
	var n int
	var got []int
	err := p.k.syscall(func() error {
		s, err := p.Sock(fd)
		if err != nil {
			return err
		}
		f, _ := p.FDs.Get(fd)
		var files []*File
		n, err = s.recv(f, buf, &files)
		if err != nil {
			return err
		}
		for _, file := range files {
			got = append(got, p.FDs.Install(file)) // reference transfers
		}
		return nil
	})
	return n, got, err
}

// InFlightFiles lists descriptors queued inside a socket's buffer — the
// control messages the checkpoint must chase (§5.3).
func (s *Socket) InFlightFiles() []*File {
	var out []*File
	for _, m := range s.recvQ {
		out = append(out, m.files...)
	}
	return out
}

// BufferedBytes returns queued payload bytes (checkpoint path).
func (s *Socket) BufferedBytes() []byte {
	var out []byte
	for _, m := range s.recvQ {
		out = append(out, m.data...)
	}
	return out
}

// SocketByAddr resolves a bound socket by address (the replay path).
// Callers must hold the kernel via the gate or a quiesce.
func (k *Kernel) SocketByAddr(addr string) (*Socket, bool) {
	s, ok := k.bounds[addr]
	return s, ok
}

// Kind returns the socket kind.
func (s *Socket) Kind() ObjKind { return s.kind }

// Listening reports listen state.
func (s *Socket) Listening() bool { return s.listening }

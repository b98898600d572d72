package kern

// Kqueue: the BSD event-notification object. Each registered kevent is an
// individually-locked structure, which is why checkpointing a kqueue with
// 1024 events costs ~35 µs in Table 4 — the per-event lock-and-copy cost.

// Filter selects the event kind.
type Filter int16

// Kevent filters (subset).
const (
	FilterRead  Filter = -1
	FilterWrite Filter = -2
	FilterTimer Filter = -7
	FilterUser  Filter = -11
)

// Kevent is one registered event.
type Kevent struct {
	Ident  uint64
	Filter Filter
	Flags  uint32
	FFlags uint32
	Data   int64
	UData  uint64

	triggered bool
}

// Kqueue is the event queue object.
type Kqueue struct {
	gen
	k      *Kernel
	events []*Kevent
}

// kqueueFile is the descriptor wrapper.
type kqueueFile struct{ kq *Kqueue }

var _ FileImpl = (*kqueueFile)(nil)

func (kf *kqueueFile) Kind() ObjKind                       { return KindKqueue }
func (kf *kqueueFile) Read(f *File, p []byte) (int, error) { return 0, ErrInvalid }
func (kf *kqueueFile) Write(f *File, p []byte) (int, error) {
	return 0, ErrInvalid
}
func (kf *kqueueFile) CloseLast() {
	kf.kq.events = nil
	kf.kq.bump()
}

// Kqueue creates an event queue descriptor.
func (p *Proc) Kqueue() (int, error) {
	var fd int
	err := p.k.syscall(func() error {
		fd = p.FDs.Install(NewFile(&kqueueFile{kq: &Kqueue{k: p.k}}, ORead|OWrite))
		return nil
	})
	return fd, err
}

// kqOf resolves a kqueue descriptor.
func (p *Proc) kqOf(fd int) (*Kqueue, error) {
	return behindFD[*Kqueue](p, fd, ErrInvalid)
}

// KeventAdd registers an event.
func (p *Proc) KeventAdd(fd int, ev Kevent) error {
	return p.k.syscall(func() error {
		kq, err := p.kqOf(fd)
		if err != nil {
			return err
		}
		e := ev
		kq.events = append(kq.events, &e)
		kq.bump()
		return nil
	})
}

// KeventTrigger marks an event active (EVFILT_USER-style).
func (p *Proc) KeventTrigger(fd int, ident uint64) error {
	return p.k.syscall(func() error {
		kq, err := p.kqOf(fd)
		if err != nil {
			return err
		}
		for _, e := range kq.events {
			if e.Ident == ident {
				e.triggered = true
			}
		}
		p.k.Gate.Broadcast()
		return nil
	})
}

// KeventWait dequeues up to len(out) triggered events, blocking until at
// least one is available.
func (p *Proc) KeventWait(fd int, out []Kevent) (int, error) {
	var n int
	err := p.k.syscall(func() error {
		kq, err := p.kqOf(fd)
		if err != nil {
			return err
		}
		anyTriggered := func() bool {
			for _, e := range kq.events {
				if e.triggered {
					return true
				}
			}
			return false
		}
		if !anyTriggered() {
			if !p.k.Gate.Sleep(anyTriggered) {
				return errRestart
			}
		}
		for _, e := range kq.events {
			if e.triggered && n < len(out) {
				out[n] = *e
				e.triggered = false
				n++
			}
		}
		return nil
	})
	return n, err
}

// Events returns the registered events (checkpoint path).
func (kq *Kqueue) Events() []*Kevent { return kq.events }

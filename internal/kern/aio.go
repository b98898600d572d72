package kern

// Asynchronous IO (§5.3): the kernel tracks every AIO in flight so the
// checkpoint can quiesce them. Writes are not recorded in the checkpoint —
// the checkpoint simply completes after they are incorporated. Reads are
// recorded so the restore can reissue them.

// AIOKind distinguishes reads from writes.
type AIOKind uint8

// AIO kinds.
const (
	AIORead AIOKind = iota
	AIOWrite
)

// AIORequest is one in-flight asynchronous IO.
type AIORequest struct {
	ID     uint64
	Kind   AIOKind
	FD     int
	Offset int64
	Len    int
	Done   bool
	Err    error
	buf    []byte
}

// AioSubmit queues an asynchronous vnode read or write; off < 0 is ErrInvalid.
func (p *Proc) AioSubmit(kind AIOKind, fd int, off int64, buf []byte) (uint64, error) {
	var id uint64
	err := p.k.syscall(func() error {
		v, err := behindFD[*VnodeFile](p, fd, ErrInvalid)
		if err != nil {
			return err
		}
		if off < 0 {
			return ErrInvalid
		}
		p.k.nextAIO++
		id = p.k.nextAIO
		req := &AIORequest{ID: id, Kind: kind, FD: fd, Offset: off, Len: len(buf), buf: buf}
		p.aios = append(p.aios, req)
		// The simulated kernel completes AIOs inline (the device is
		// asynchronous underneath); what matters for checkpointing is
		// the tracked in-flight window, which InFlightAIOs reports.
		switch kind {
		case AIORead:
			_, req.Err = v.h.ReadAt(buf, off)
		case AIOWrite:
			_, req.Err = v.h.WriteAt(buf, off)
		}
		req.Done = true
		return nil
	})
	return id, err
}

// AioWait blocks until the request completes, returning its error and
// removing it from the in-flight table.
func (p *Proc) AioWait(id uint64) error {
	return p.k.syscall(func() error {
		for i, req := range p.aios {
			if req.ID == id {
				if !p.k.Gate.Sleep(func() bool { return req.Done }) {
					return errRestart
				}
				p.aios = append(p.aios[:i], p.aios[i+1:]...)
				return req.Err
			}
		}
		return ErrInvalid
	})
}

package criu

import (
	"aurora/internal/kern"
	"aurora/internal/rec"
)

// Restore reads the image back and rebuilds the processes (enough to prove
// the image is usable; the paper's comparison measures checkpoint costs).
func (c *Checkpointer) Restore() ([]*kern.Proc, error) {
	head := make([]byte, 1<<20)
	if _, err := c.Dev.ReadAt(head, 0); err != nil {
		return nil, err
	}
	// Image length is discovered by decoding progressively; for the
	// simulation the full device prefix is read.
	buf := make([]byte, c.Dev.Size())
	if _, err := c.Dev.ReadAt(buf, 0); err != nil {
		return nil, err
	}
	// Find the sealed length: decode optimistically from the start.
	d := rec.NewRawDecoder(buf)
	n := int(d.U32())
	var procs []*kern.Proc
	for i := 0; i < n; i++ {
		name := d.Str()
		localPID := kern.PID(d.U32())
		pgid := kern.PID(d.U32())
		sid := kern.PID(d.U32())
		p := c.K.RestoreProc(name, localPID, pgid, sid, 0)
		p.RestoreThread("main", localPID, kern.CPUState{}, 0, 0)
		nfds := int(d.U32())
		for j := 0; j < nfds; j++ {
			_ = d.U32()
		}
		procs = append(procs, p)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return procs, nil
}

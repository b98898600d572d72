package sls

import (
	"io"

	"aurora/internal/objstore"
	"aurora/internal/rec"
)

// send is Send against a retained base: a nonzero since writes only the
// state that changed since that epoch, and the receiver must already hold
// the group at since.
func (g *Group) send(w io.Writer, since objstore.Epoch) error {
	var e rec.Encoder
	if _, err := g.encodeStream(&e, since, nil); err != nil {
		return err
	}
	if _, err := w.Write(e.Raw()); err != nil {
		return err
	}
	g.o.chargeDirectWire(int64(e.Len()))
	return nil
}

// ReplicateTo seeds a standby with the group's full state over the direct
// path and returns the replication handle. The group must be checkpointing
// (the seed takes a checkpoint if none exists).
func (g *Group) ReplicateTo(dst *Orchestrator) (*Replica, error) {
	return g.ReplicateToVia(dst, nil)
}

// WALSeq returns the frame sequence of the group's newest WAL commit, or
// zero when the newest commit was a full checkpoint.
func (g *Group) WALSeq() uint64 { return g.lastWALSeq }

// FailedOver reports whether the standby has been promoted.
func (r *Replica) FailedOver() bool { return r.failedOver }

package sls

import (
	"io"
	"time"

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

// WALDurable returns when the group's newest WAL commit lands, or zero when
// the newest commit was a full checkpoint.
func (g *Group) WALDurable() time.Duration { return g.lastWALDurable }

// FailedOver reports whether the standby has been promoted.
func (r *Replica) FailedOver() bool { return r.failedOver }

// oidOf returns the OID the group's table files key under, 0 if it holds none.
func (g *Group) oidOf(key any) objstore.OID {
	if e := g.ents[key]; e != nil {
		return e.oid
	}
	return 0
}

// trustedAt returns the generation at which the capture gate trusts oid's
// record, and whether it trusts one.
func (g *Group) trustedAt(oid objstore.OID) (uint64, bool) {
	if e, ok := g.byOID.Get(oidKey(oid)); ok && e.trusted {
		return e.gen, true
	}
	return 0, false
}

// trusts counts the records the capture gate trusts.
func (g *Group) trusts() int {
	n := 0
	for _, e := range g.ents {
		if e.trusted {
			n++
		}
	}
	return n
}

// trust plants the capture gate's memory: the group trusts obj's record at
// obj's present generation.
func (g *Group) trust(obj generational) {
	e := g.ents[obj]
	e.trusted, e.gen = true, obj.Generation()
}

package sls

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

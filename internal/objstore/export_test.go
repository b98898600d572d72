package objstore

import "time"

// OID returns the journal's object identifier.
func (j *Journal) OID() OID { return j.o.oid }

// DurableAt returns the virtual time a retained epoch became durable: 0 for
// one loaded from media.
func (s *Store) DurableAt(epoch Epoch) (time.Duration, bool) {
	c, err := s.retainedInfo(epoch)
	if err != nil {
		return 0, false
	}
	return c.durable, true
}

// FreeBlocks reports how many blocks the free map holds, never-used space
// included (for tests and tooling).
func (s *Store) FreeBlocks() int {
	s.promoteReleased()
	n := int64(0)
	for _, r := range s.free {
		n += r.n
	}
	return int(n)
}

// Epoch returns the epoch the view images.
func (v *View) Epoch() Epoch { return v.epoch }

// WALRegion returns the reserved region's device offset and size in bytes.
func (s *Store) WALRegion() (base, size int64) { return s.walBase, s.walBlocks * BlockSize }

// Fold runs a full checkpoint, waits for it to become durable, and resets
// the WAL head. It is the guaranteed-progress fallback for ErrWALFull: on
// return the region is empty.
func (s *Store) Fold() (CheckpointStats, error) {
	cst, err := s.Checkpoint()
	if err != nil {
		return cst, err
	}
	if err := s.WaitDurable(cst.Epoch); err != nil {
		return cst, err
	}
	s.maybeResetWAL()
	return cst, nil
}

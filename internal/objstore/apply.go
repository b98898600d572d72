package objstore

// The store's mutations, each stated once. A live mutator validates its
// arguments, does its device work (allocate, submit) and then changes object
// state by handing a walOp to mutate, which applies it and notes it for the
// next WAL frame. Recovery decodes the same ops from the frames and hands
// them to the same apply: the replayed mutation and the live one are one
// body, and the only thing replay adds is claimWALBlock, reconciling the
// allocator with blocks the live mutator had allocated itself. DESIGN.md
// ("The store's mutation table") lists, per op kind, who notes it and what
// apply does.

import (
	"fmt"

	"aurora/internal/flight"
)

// mutate is the state-changing half of a live mutator: apply op, then note it
// for the next WAL frame. Requires mu.
func (s *Store) mutate(op *walOp) error {
	if err := s.apply(op); err != nil {
		return err
	}
	s.walNote(op)
	return nil
}

// apply changes object state by one logical mutation. The live mutators have
// checked their arguments before they get here, so the refusals of the bodies
// below are replay's: a frame that passed its CRC and still names an
// impossible mutation is corrupt. An op that fails leaves its object as it
// was. Ops travel by pointer and every body is a function of its own so that
// a page publish — which runs on the flush workers, fresh goroutines each
// checkpoint — carries a small frame, not the union of all six. Requires mu.
func (s *Store) apply(op *walOp) error {
	switch op.kind {
	case walOpPut:
		return s.applyPut(op)
	case walOpPage:
		return s.applyPage(op)
	case walOpSize:
		return s.applySize(op)
	case walOpDelete:
		return s.applyDelete(op)
	case walOpJournal:
		return s.applyJournal(op)
	case walOpFlight:
		return s.applyFlight(op)
	}
	return fmt.Errorf("%w: unknown wal op %d", ErrCorrupt, op.kind)
}

// applyPut is the inline set: oid holds op.data inline, whatever it held.
func (s *Store) applyPut(op *walOp) error {
	o := s.ensure(op.oid, op.utype)
	if o.journal != nil {
		return fmt.Errorf("%w: put on journal %d", ErrCorrupt, op.oid)
	}
	return s.setInline(o, op.utype, append(o.inline[:0], op.data...))
}

// applyPage is the slot publish: page op.pg of oid is the block at op.addr,
// already written; the block it replaces is retired.
func (s *Store) applyPage(op *walOp) error {
	o := s.ensure(op.oid, op.utype)
	if o.journal != nil {
		return fmt.Errorf("%w: page on journal %d", ErrCorrupt, op.oid)
	}
	// An inline object's first page op is its conversion: the live path
	// re-logged the former inline content as the page ops that follow.
	makePaged(o)
	c, err := s.loadChunk(o, op.pg, true)
	if err != nil {
		return err
	}
	s.claimWALBlock(op.addr)
	slot := op.pg % ChunkFanout
	if old := c.addrs[slot]; old != op.addr {
		s.retireBlock(old)
	}
	c.addrs[slot], c.sums[slot], c.dirty = op.addr, op.sum, true
	return nil
}

// applySize is the resize: an inline payload is cut or zero-extended, a paged
// object loses the slots past the new size.
func (s *Store) applySize(op *walOp) error {
	o, err := s.lookup(op.oid)
	if err != nil {
		return fmt.Errorf("%w: size for unknown object %d", ErrCorrupt, op.oid)
	}
	if o.journal != nil {
		return fmt.Errorf("%w: size on journal %d", ErrCorrupt, op.oid)
	}
	if o.chunks == nil {
		if op.size <= int64(len(o.inline)) {
			o.inline = o.inline[:op.size]
		} else {
			o.inline = append(o.inline, make([]byte, op.size-int64(len(o.inline)))...)
		}
	} else if err := s.shrinkSlots(o, op.size); err != nil {
		return err
	}
	o.size, o.dirty = op.size, true
	return nil
}

// applyDelete is object removal: every block the object holds is retired and
// it leaves the table.
func (s *Store) applyDelete(op *walOp) error {
	o, err := s.lookup(op.oid)
	if err != nil {
		return fmt.Errorf("%w: delete of unknown object %d", ErrCorrupt, op.oid)
	}
	if err := s.dropChunks(o); err != nil {
		return err
	}
	if o.journal != nil {
		s.retireRun(o.journal.extentAddr, o.journal.capBlocks)
	}
	if o.recordAddr != 0 {
		s.retireRun(o.recordAddr, blocksFor(o.recordLen))
	}
	delete(s.objects, op.oid)
	s.deleted[op.oid] = true
	return nil
}

// applyJournal creates oid as a journal over the extent the op names, or, if
// it is one, truncates it: a new generation, flushed through op.fseq.
func (s *Store) applyJournal(op *walOp) error {
	o := s.ensure(op.oid, op.utype)
	if js := o.journal; js != nil {
		js.generation, js.flushedSeq, js.tail = op.gen, op.fseq, 0
	} else {
		if err := s.dropChunks(o); err != nil {
			return err
		}
		o.inline = nil
		for i := int64(0); i < op.size; i++ {
			s.claimWALBlock(op.addr + i*BlockSize)
		}
		o.journal = &journalState{
			extentAddr: op.addr,
			capBlocks:  op.size,
			generation: op.gen,
			flushedSeq: op.fseq,
		}
	}
	o.size = 0
	return nil
}

// applyFlight merges a frame's flight tail onto the ring FlightOID holds.
func (s *Store) applyFlight(op *walOp) error {
	o := s.ensure(op.oid, flight.UType)
	if o.journal != nil {
		return fmt.Errorf("%w: flight tail on journal %d", ErrCorrupt, op.oid)
	}
	ring, err := flight.Merge(o.inline, op.data, int(op.size))
	if err != nil {
		return corrupt(err)
	}
	return s.setInline(o, flight.UType, ring)
}

// extend grows o to cover end and notes the size it has now. It is what
// apply's walOpSize case comes to for a size that did not shrink — no page
// lies past it, so there is no tail slot to retire — without that case's walk
// over the tail chunks: the page writers call it once per write. Requires mu.
func (s *Store) extend(o *object, end int64) {
	o.size, o.dirty = max(o.size, end), true
	s.walNote(&walOp{kind: walOpSize, oid: o.oid, size: o.size})
}

// setInline makes o an inline object of the given type holding data, which
// it keeps. Requires mu.
func (s *Store) setInline(o *object, utype uint16, data []byte) error {
	if err := s.dropChunks(o); err != nil {
		return err
	}
	o.utype, o.inline, o.size = utype, data, int64(len(data))
	return nil
}

// makePaged gives an inline object the paged shape, dropping its payload.
func makePaged(o *object) {
	if o.chunks == nil {
		o.inline, o.chunks = nil, make(map[int64]*chunk)
	}
}

// shrinkSlots retires the page slots at and past the last page of size, and
// the chunks that leaves empty. It walks in chunk order: what it retires
// feeds the freelist, and the freelist feeds the deterministic submit stream
// the crash harness replays. Requires mu.
func (s *Store) shrinkSlots(o *object, size int64) error {
	lastPg := blocksFor(size) // first page index to drop
	for _, ci := range chunkIdxs(o) {
		first := ci * ChunkFanout
		if first+ChunkFanout <= lastPg {
			continue
		}
		c, err := s.loadChunk(o, first, false)
		if err != nil {
			return err
		}
		empty := true
		for slot := int64(0); slot < ChunkFanout; slot++ {
			if c.addrs[slot] == 0 {
				continue
			}
			if first+slot < lastPg {
				empty = false
				continue
			}
			s.retireBlock(c.addrs[slot])
			c.addrs[slot], c.sums[slot], c.dirty = 0, 0, true
		}
		if empty && first >= lastPg {
			s.retireBlock(c.addr)
			delete(o.chunks, ci)
		}
	}
	return nil
}

// dropChunks retires all of an object's data and chunk blocks, in chunk order
// (see shrinkSlots). Every chunk is faulted in before any block is retired: a
// chunk that cannot be read fails the drop with nothing retired, where
// retiring around it would leave the blocks it addresses neither free nor
// referenced. Requires mu.
func (s *Store) dropChunks(o *object) error {
	if o.chunks == nil {
		return nil // inline or journal: the common case, an inline put over an inline object
	}
	cis := chunkIdxs(o)
	for _, ci := range cis {
		if err := s.faultChunk(ci, o.chunks[ci]); err != nil {
			return fmt.Errorf("oid %d %w", o.oid, err)
		}
	}
	for _, ci := range cis {
		c := o.chunks[ci]
		for _, a := range c.addrs {
			s.retireBlock(a)
		}
		s.retireBlock(c.addr)
	}
	o.chunks = nil
	return nil
}

package objstore

// The store's mutations, each stated once. A live mutator validates its
// arguments, does its device work (allocate, submit) and then changes object
// state by handing a walOp to mutate, which applies it and notes it for the
// next WAL frame. Recovery decodes the same ops from the frames and hands
// them to the same apply: the replayed mutation and the live one are one
// body, and the only thing replay adds is claimWALBlock, reconciling the
// free map with blocks the live mutator had allocated itself. DESIGN.md
// ("The store's mutation table") lists, per op kind, who notes it and what
// apply does.

import (
	"fmt"

	"aurora/internal/radix"
)

// mutate is the state-changing half of a live mutator: apply op, then note it
// for the next WAL frame.
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
// a page publish, once per flushed page, carries a small frame, not the union
// of all five.
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
	if err := s.claimWALBlock(op.addr, 1); err != nil {
		return err
	}
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
	slot := op.pg % ChunkFanout
	if old := c.addrs[slot]; old != op.addr {
		s.retireBlock(old)
	}
	c.addrs[slot], c.sums[slot], c.dirty = op.addr, op.sum, true
	return nil
}

// applySize is the resize: an inline payload is cut or zero-extended, a paged
// object loses the slots past the new size. One that does not shrink has no
// slot to lose, so it walks no chunk.
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
	} else if op.size < o.size {
		if err := s.shrinkSlots(o, op.size); err != nil {
			return err
		}
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
	s.objects.Del(oidKey(op.oid))
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
		if err := s.claimWALBlock(op.addr, op.size); err != nil {
			return err
		}
		o.inline = nil
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

// extend grows a paged o to cover end: the size op the page writers note
// once per write.
func (s *Store) extend(o *object, end int64) error {
	return s.mutate(&walOp{kind: walOpSize, oid: o.oid, size: max(o.size, end)})
}

// setInline makes o an inline object of the given type holding data, which
// it keeps.
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
		o.inline, o.chunks = nil, new(radix.Table[*chunk])
	}
}

// shrinkSlots retires the page slots at and past the last page of size, and
// the chunks that leaves empty. It walks in chunk order: what it retires
// feeds the free map, and the free map feeds the deterministic submit stream
// the crash harness replays.
func (s *Store) shrinkSlots(o *object, size int64) error {
	lastPg := blocksFor(size) // first page index to drop
	for ci, c := range o.chunks.All() {
		first := ci * ChunkFanout
		if first+ChunkFanout <= lastPg {
			continue
		}
		if err := s.faultChunk(ci, c); err != nil {
			return fmt.Errorf("oid %d %w", o.oid, err)
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
			o.chunks.Del(ci)
		}
	}
	return nil
}

// dropChunks retires all of an object's data and chunk blocks, in chunk order
// (see shrinkSlots). Every chunk is faulted in before any block is retired: a
// chunk that cannot be read fails the drop with nothing retired, where
// retiring around it would leave the blocks it addresses neither free nor
// referenced.
func (s *Store) dropChunks(o *object) error {
	if o.chunks == nil {
		return nil // inline or journal: the common case, an inline put over an inline object
	}
	for ci, c := range o.chunks.All() {
		if err := s.faultChunk(ci, c); err != nil {
			return fmt.Errorf("oid %d %w", o.oid, err)
		}
	}
	for _, c := range o.chunks.All() {
		for _, a := range c.addrs {
			s.retireBlock(a)
		}
		s.retireBlock(c.addr)
	}
	o.chunks = nil
	return nil
}

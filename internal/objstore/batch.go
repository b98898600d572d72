package objstore

import (
	"cmp"
	"fmt"
	"hash/crc32"
	"slices"
	"time"

	"aurora/internal/trace"
)

// The COW page write. Every page writer — WritePages, WritePage, a byte-range
// WriteAt, a spilled PutRecord, the inline → paged conversion and the zeroed
// tail page of a truncate — runs writePages, in three phases:
//
//  1. Reserve: fault in the block-map chunks the pages fall in, and
//     allocate one fresh block per page. A chunk the object lacks is created
//     at publish, so a write that fails here leaves no chunk behind.
//  2. Transfer: submit every payload to the device. The blocks are fresh, so
//     nothing reads them until Publish — which also means transfer order is
//     free: the pages are walked in device-address order and each contiguous
//     block run becomes one vectored submit, so per-page device commands
//     collapse into per-run ones without staging a contiguous copy. (The
//     allocator hands sequential batches ascending runs of the free map.)
//  3. Publish: one page op per write, through mutate, swings the chunk slot
//     to the new block and retires the superseded one — the op replay will
//     apply.
//
// A write that fails returns the blocks it reserved and did not publish.

// PageWrite names one whole-page update in a batch.
type PageWrite struct {
	Pg   int64
	Data []byte // exactly BlockSize bytes, stable until WritePages returns
}

// pageScratch is writePages's working memory, kept on the store and
// reused, so a page write allocates nothing.
type pageScratch struct {
	addrs []int64  // the block reserved for each write, in write order
	order []int    // write indexes in device-address order
	bufs  [][]byte // the payloads of one contiguous block run
}

// batchPages bounds how many pages one writepages span covers, so a huge
// flush is traced, reserved and transferred in bounded batches.
const batchPages = 256

// WritePages applies a batch of COW page writes to oid. Every page is
// allocated a fresh block (the old one, if any, is retired), and the device
// transfers are submitted asynchronously: durability is the interval
// commit's job, as with WritePage. It returns the number of bytes submitted.
func (s *Store) WritePages(oid OID, writes []PageWrite) (int64, error) {
	for _, w := range writes {
		if len(w.Data) != BlockSize {
			return 0, fmt.Errorf("objstore: WritePages wants %d bytes, got %d", BlockSize, len(w.Data))
		}
	}
	var bytes int64
	for len(writes) > 0 {
		n := min(len(writes), batchPages)
		if err := s.writePageBatch(oid, writes[:n]); err != nil {
			return bytes, err
		}
		bytes += int64(n) * BlockSize
		writes = writes[n:]
	}
	return bytes, nil
}

// writePageBatch writes one bounded batch, traced as a writepages span, and
// grows oid to cover it.
func (s *Store) writePageBatch(oid OID, writes []PageWrite) error {
	sp := s.tr.Begin(trace.TrackObjstore, "writepages",
		trace.I("oid", int64(oid)), trace.I("pages", int64(len(writes))))
	o, err := s.lookup(oid)
	if err == nil && o.journal != nil {
		err = ErrIsJournal
	}
	if err == nil {
		err = s.writePages(o, sp, writes...)
	}
	if err == nil {
		var end int64
		for _, w := range writes {
			end = max(end, (w.Pg+1)*BlockSize)
		}
		err = s.extend(o, end)
	}
	if err != nil {
		sp.End(trace.S("err", err.Error()))
		return err
	}
	sp.End()
	s.tr.Count("objstore.data.bytes", int64(len(writes))*BlockSize)
	return nil
}

// writePages is the COW page write (see the top of this file). It
// converts an inline object to paged form first. sp, when traced, is the span
// the three phases are children of.
func (s *Store) writePages(o *object, sp trace.Span, writes ...PageWrite) (err error) {
	phase := sp.Child("reserve")
	defer func() {
		if err != nil {
			phase.End(trace.S("err", err.Error()))
		}
	}()
	if err := s.toPaged(o); err != nil {
		return err
	}
	w := &s.pages
	addrs := w.addrs[:0]
	for _, pw := range writes {
		if _, err := s.loadChunk(o, pw.Pg, false); err != nil {
			s.unreserve(addrs)
			return err
		}
		a, err := s.allocRun(1)
		if err != nil {
			s.unreserve(addrs)
			return err
		}
		addrs = append(addrs, a)
	}
	w.addrs = addrs
	phase.End()
	phase = sp.Child("transfer")

	order := w.order[:0]
	for i := range writes {
		order = append(order, i)
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(addrs[a], addrs[b]) })
	w.order = order
	var done time.Duration
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && addrs[order[hi]] == addrs[order[hi-1]]+BlockSize {
			hi++
		}
		bufs := w.bufs[:0]
		for _, i := range order[lo:hi] {
			bufs = append(bufs, writes[i].Data)
		}
		t, err := s.dev.Submit(bufs, addrs[order[lo]], 0)
		clear(bufs)
		w.bufs = bufs
		if err != nil {
			s.unreserve(addrs)
			return err
		}
		done = max(done, t)
		lo = hi
	}
	s.pendingDurable = max(s.pendingDurable, done)
	phase.End()
	phase = sp.Child("publish")

	for i, pw := range writes {
		op := walOp{kind: walOpPage, oid: o.oid, utype: o.utype, pg: pw.Pg, addr: addrs[i], sum: crc32.ChecksumIEEE(pw.Data)}
		if err := s.mutate(&op); err != nil {
			s.unreserve(addrs[i:])
			return err
		}
	}
	s.stats.DataBytes += int64(len(writes)) * BlockSize
	phase.End()
	return nil
}

// unreserve returns blocks reserved by a failed write to the allocator.
// They were born this interval and never published, so they recycle
// immediately.
func (s *Store) unreserve(addrs []int64) {
	for _, a := range addrs {
		s.retireBlock(a)
	}
}

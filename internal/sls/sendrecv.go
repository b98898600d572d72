package sls

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"time"

	"aurora/internal/flight"
	"aurora/internal/mem"
	"aurora/internal/net"
	"aurora/internal/objstore"
	"aurora/internal/rec"
)

// sls send / sls recv (§3): serialize a group's last committed checkpoint
// onto a byte stream and inject it into another machine's store, enabling
// migration and failover. The stream carries every object of the group —
// POSIX records, memory pages, journals — under its original OIDs; the
// receiver merges the group into its manifest and commits, after which a
// normal restore resumes the application on the new machine.

// Stream item kinds.
const (
	itemRecord uint8 = iota + 1
	itemPages
	itemJournal
	itemEnd
)

// streamMagic heads a checkpoint stream.
const streamMagic = 0x41555253 // "AURS"

// streamVersion is the stream format revision. v2 added source/base epochs
// and the live-OID list to the head, making delta application verifiable
// (a delta against a base the receiver does not hold is rejected before any
// store mutation) and letting deltas delete objects that vanished between
// epochs. v3 ships a journal as raw frames from an offset in its extent
// instead of its entries, so a delta carries only the frames the standby
// lacks.
const streamVersion = 3

// maxStreamItem bounds one stream item's decoded size. The 4-byte length
// header is attacker-controlled on a hostile wire; without a cap a corrupt
// header drives an allocation of up to 4 GiB. Items are records, single
// pages or runs of journal frames plus framing — 16 MiB is generous headroom.
const maxStreamItem = 16 << 20

// journalItemHead is what a journal item spends besides its frames: kind,
// oid, utype, capacity, generation, flushed seq, offset, the frames' length
// and the item's CRC, rounded up.
const journalItemHead = 64

// maxStreamOIDs bounds the head's live-OID list.
const maxStreamOIDs = 1 << 20

// Send writes the group's last committed state to w and charges the direct
// path's wire time. The group must have checkpointed at least once.
func (g *Group) Send(w io.Writer) error {
	var e rec.Encoder
	if _, err := g.encodeStream(&e, 0, nil); err != nil {
		return err
	}
	if _, err := w.Write(e.Raw()); err != nil {
		return err
	}
	g.o.chargeDirectWire(int64(e.Len()))
	return nil
}

// chargeDirectWire charges the direct path's wire time for an n-byte stream:
// one round trip and the bytes, as one lump.
func (o *Orchestrator) chargeDirectWire(n int64) {
	o.Clk.Advance(o.Costs.NetRTT + time.Duration(n)*o.Costs.NetPerByte)
}

// journalMarks holds, per journal, the position in its frames a standby has.
type journalMarks map[objstore.OID]objstore.JournalMark

// encodeStream appends the stream of the group's last committed state (full
// when since==0, delta otherwise) to e, item by item in place — each a 4-byte
// length and a sealed record (rec.Encoder.Begin/End) — and returns, per
// journal, the mark at the frames it shipped. A delta ships a journal's frames
// past its mark in marks; a full stream, or a journal marks lacks, ships them
// all. No wire time is charged: callers either charge the direct-path cost
// (send) or let a simulated transport charge per frame (internal/net).
func (g *Group) encodeStream(e *rec.Encoder, since objstore.Epoch, marks journalMarks) (journalMarks, error) {
	if g.lastEpoch == 0 {
		return nil, fmt.Errorf("sls: group %q has no committed checkpoint to send", g.Name)
	}
	if since == 0 {
		marks = nil
	}
	shipped := make(journalMarks, len(g.journals))

	// Group record itself plus every object it referenced last epoch, in
	// ascending-OID order: the stream must be byte-identical across runs
	// of the same state (map iteration order would shuffle the items and
	// break stream-level determinism checks and dedup on the receive side).
	// Only objects that still exist are listed — the head's live list is
	// the receiver's contract for which OIDs this epoch contains, and on a
	// delta it deletes anything it holds that is no longer listed.
	live := make([]objstore.OID, 0, g.byOID.Len()+1)
	if g.o.Store.Exists(g.oid) {
		live = append(live, g.oid)
	}
	for _, e := range g.byOID.All() {
		if e.live && e.oid != g.oid && g.o.Store.Exists(e.oid) {
			live = append(live, e.oid)
		}
	}

	m := e.Begin()
	e.U32(streamMagic)
	e.U8(streamVersion)
	e.Str(g.Name)
	e.U64(uint64(g.oid))
	e.U64(uint64(g.lastEpoch)) // epoch this stream carries
	e.U64(uint64(since))       // base epoch a delta applies over (0 = full)
	e.U32(uint32(len(live)))
	for _, oid := range live {
		e.U64(uint64(oid))
	}
	e.End(m)

	for _, oid := range live {
		ut, err := g.o.Store.UType(oid)
		if err != nil {
			return nil, err
		}
		if isJournalOID(g, oid) {
			if shipped[oid], err = g.sendJournal(e, oid, ut, marks[oid]); err != nil {
				return nil, err
			}
			continue
		}
		if ut == UTMemObject {
			if err := g.sendPages(e, oid, since); err != nil {
				return nil, err
			}
			continue
		}
		raw, err := g.o.Store.GetRecord(oid)
		if err != nil {
			return nil, err
		}
		m := e.Begin()
		e.U8(itemRecord)
		e.U64(uint64(oid))
		e.U16(ut)
		e.Bytes(raw)
		e.End(m)
	}
	m = e.Begin()
	e.U8(itemEnd)
	e.End(m)
	return shipped, nil
}

func isJournalOID(g *Group, oid objstore.OID) bool {
	for _, joid := range g.journals {
		if joid == oid {
			return true
		}
	}
	return false
}

// sendPages streams a memory object's pages — all of them for a full send,
// only the changed set for a delta — each copied once, from the store's read
// window into its item.
func (g *Group) sendPages(e *rec.Encoder, oid objstore.OID, since objstore.Epoch) error {
	size, err := g.o.Store.Size(oid)
	if err != nil {
		return err
	}
	pagesItem(e, oid, size, nil) // the run header: the object's size
	full := since == 0
	var changed []int64
	if !full {
		// Only a released base epoch falls back to resending the object in
		// full. Any other failure to read the base (a corrupt retained index
		// or record, an I/O error) fails the send: a full resend would hide it.
		changed, err = g.o.Store.DiffPages(oid, since)
		if errors.Is(err, objstore.ErrNoEpoch) {
			full = true
		} else if err != nil {
			return err
		}
	}
	emitPage := func(pg int64, data []byte) error {
		pagesItem(e, oid, pg, data)
		return nil
	}
	if full {
		_, err = g.o.Store.EachPageBulk(oid, emitPage)
	} else {
		e.Grow(len(changed) * (pageItemHead + objstore.BlockSize))
		err = g.o.Store.EachPageOf(oid, changed, emitPage)
	}
	if err != nil {
		return err
	}
	// Page runs end with a sentinel page index of -1.
	pagesItem(e, oid, -1, []byte{})
	return nil
}

// pageItemHead is what a page item spends besides its data: the length, kind,
// oid, page index, the data's length and the CRC.
const pageItemHead = 4 + 1 + 8 + 8 + 4 + 4

// pagesItem appends one item of a page run: the run's header (data nil, arg
// the object's size), a page (arg its index) or the sentinel (arg -1, no data).
func pagesItem(e *rec.Encoder, oid objstore.OID, arg int64, data []byte) {
	m := e.Begin()
	e.U8(itemPages)
	e.U64(uint64(oid))
	e.I64(arg)
	if data != nil {
		e.Bytes(data)
	}
	e.End(m)
}

// sendJournal streams a journal's frames past from as they lie in its extent,
// in items of whole frames that fit maxStreamItem — all of the current
// generation's when from is not a position in it — and returns the mark at
// the tail.
func (g *Group) sendJournal(e *rec.Encoder, oid objstore.OID, ut uint16, from objstore.JournalMark) (objstore.JournalMark, error) {
	j, err := g.o.Store.OpenJournal(oid)
	if err != nil {
		return from, err
	}
	runs, to, err := j.ReadFrames(from, maxStreamItem-journalItemHead)
	if err != nil {
		return from, err
	}
	for _, run := range runs {
		journalItem(e, oid, ut, j.Capacity(), run)
	}
	return to, nil
}

// journalItem appends one run of a journal's frames as a stream item.
func journalItem(e *rec.Encoder, oid objstore.OID, ut uint16, capacity int64, run objstore.FrameRun) {
	m := e.Begin()
	e.U8(itemJournal)
	e.U64(uint64(oid))
	e.U16(ut)
	e.I64(capacity)
	e.U64(run.Gen)
	e.U64(run.FlushedSeq)
	e.I64(run.Off)
	e.Bytes(run.Frames)
	e.End(m)
}

// recvGroupState tracks what a receiver holds for one replicated group:
// the epoch of the last applied stream and the OIDs it carried. Deltas are
// validated against it (a delta whose base the receiver does not hold is
// rejected before any store mutation) and it drives deletion of objects
// that vanished between epochs.
type recvGroupState struct {
	epoch objstore.Epoch
	live  map[objstore.OID]bool
	image warmImage // the group's memory at epoch: a continuing restore installs it unread
}

// warmImage is a clean copy, per memory object, of each page streams landed.
type warmImage map[objstore.OID]map[int64]*mem.Page

// drop frees the frames of the objects live does not list (nil: every object).
func (w warmImage) drop(pm *mem.PhysMem, live map[objstore.OID]bool) {
	for oid, pages := range w {
		if !live[oid] {
			for _, f := range pages {
				pm.Free(f)
			}
			delete(w, oid)
		}
	}
}

// publish copies a committed stream's landed pages into its group's image w,
// one page copy each on this machine's clock, and drops the objects the stream
// no longer lists. Out of memory, the image is dropped whole, uncharged, and
// no later delta starts another (w nil): an image holds all the store holds.
func (o *Orchestrator) publish(w warmImage, live map[objstore.OID]bool, landed map[objstore.OID][]objstore.PageWrite) warmImage {
	if w == nil {
		return nil
	}
	pm := o.K.VM.PM
	w.drop(pm, live)
	var n int64
	for oid, pws := range landed {
		if w[oid] == nil {
			w[oid] = make(map[int64]*mem.Page, len(pws))
		}
		for _, pw := range pws {
			f := w[oid][pw.Pg]
			if f == nil {
				if f, _ = pm.AllocUnzeroed(); f == nil {
					w.drop(pm, nil)
					return nil
				}
				w[oid][pw.Pg] = f
			}
			copy(f.Data, pw.Data)
			n++
		}
	}
	o.Clk.Advance(time.Duration(n) * o.Costs.MemCopyPerPage)
	return w
}

// Recv reads a checkpoint stream into the local store and registers the
// group in the manifest, committing when done. It returns the group name;
// RestoreGroup then resumes the application. The stream is read whole and
// applied as recvPayload applies a replica's.
func (o *Orchestrator) Recv(r io.Reader) (string, error) {
	payload, err := io.ReadAll(r)
	if err != nil {
		return "", err
	}
	return o.recvPayload(payload)
}

// recvBatch bounds the pages of a run one WritePages call lands: the store's
// own batch, one writepages span.
const recvBatch = 256

// recvPayload applies a stream in memory, decoding it where it lies: each
// item is a sub-slice of payload, and a page's data reaches the store's write
// from there, uncopied. The items are checked whole first (checkItems), so a
// stream refused as corrupt changes nothing; the apply pass then reads them
// unsummed, and lands each page run through WritePages in batches.
func (o *Orchestrator) recvPayload(payload []byte) (string, error) {
	item, items, err := rec.NextRecord(payload, maxStreamItem)
	if err != nil {
		return "", err
	}
	head, err := rec.NewDecoder(item)
	if err != nil {
		return "", err
	}
	if head.U32() != streamMagic {
		return "", fmt.Errorf("sls: not a checkpoint stream")
	}
	if v := head.U8(); v != streamVersion {
		return "", fmt.Errorf("sls: checkpoint stream version %d, want %d", v, streamVersion)
	}
	name := head.Str()
	groupOID := objstore.OID(head.U64())
	srcEpoch := objstore.Epoch(head.U64())
	baseEpoch := objstore.Epoch(head.U64())
	nlive := int(head.U32())
	if nlive > maxStreamOIDs {
		return "", fmt.Errorf("%w: stream lists %d objects, cap %d", rec.ErrCorrupt, nlive, maxStreamOIDs)
	}
	live := make(map[objstore.OID]bool, nlive)
	for i := 0; i < nlive && head.Err() == nil; i++ {
		live[objstore.OID(head.U64())] = true
	}
	if err := head.Err(); err != nil {
		return "", err
	}
	delta := baseEpoch != 0
	// The stream is outside input: an item may touch only an object its head
	// listed, never the receiver's own manifest, and none at or above 2^63,
	// which no allocator reaches: writing one would move the receiver's
	// allocator up to the wrap, and past it onto live OIDs. Checked before
	// the item mutates the store.
	listed := func(oid objstore.OID) error {
		if !live[oid] || oid == ManifestOID || oid >= 1<<63 {
			return fmt.Errorf("%w: stream item for object %d, which is not the stream's to write", rec.ErrCorrupt, oid)
		}
		return nil
	}

	// Validate a delta against what this receiver holds BEFORE any store
	// mutation: applying page deltas over the wrong base would silently
	// corrupt the standby image.
	state := o.recvState[name]
	image := warmImage{} // a full stream starts the group's image, a delta extends its base's
	if delta {
		if state == nil {
			return "", fmt.Errorf("sls: delta stream for group %q but no base image received", name)
		}
		if state.epoch != baseEpoch {
			return "", fmt.Errorf("sls: delta stream for group %q needs base epoch %d, receiver holds %d",
				name, baseEpoch, state.epoch)
		}
		image = state.image
	}

	// A full stream registers a new group. Refuse it here, before the first
	// item writes an object, if the manifest cannot be read or already lists
	// the name; the entries ride to the end of the stream, where the group's
	// own joins them and the record is written.
	var manifest []manifestEntry
	if !delta {
		if manifest, err = o.manifestEntries(); err != nil {
			return "", err
		}
		for _, ent := range manifest {
			if ent.name == name {
				return "", fmt.Errorf("sls: group %q already exists on this machine", name)
			}
		}
	}

	retain, err := checkItems(items, groupOID, listed)
	if err != nil {
		return "", err
	}

	// The open page run's object, its pages not yet landed, and those landed.
	var cur objstore.OID
	var batch [recvBatch]objstore.PageWrite
	pages := batch[:0]
	landed := make(map[objstore.OID][]objstore.PageWrite)
	land := func() error {
		if len(pages) == 0 {
			return nil
		}
		_, err := o.Store.WritePages(cur, pages)
		landed[cur] = append(landed[cur], pages...)
		pages = pages[:0]
		return err
	}
	for {
		item, items, _ = rec.NextRecord(items, maxStreamItem)
		d := rec.NewRawDecoder(item[:len(item)-4])
		kind := d.U8()
		if kind != itemPages {
			if err := land(); err != nil {
				return "", err
			}
		}
		switch kind {
		case itemEnd:
			if !delta {
				manifest = append(manifest, manifestEntry{id: uint64(len(manifest) + 1), name: name, oid: groupOID})
				if err := o.putManifest(manifest); err != nil {
					return "", err
				}
			} else {
				// Objects the receiver holds from the base epoch that this
				// epoch no longer lists were deleted on the source between
				// epochs: drop them so the standby image matches.
				// ManifestOID lives outside any group's live set: the
				// manifest indexes every group on the receiver.
				for _, oid := range slices.Sorted(maps.Keys(state.live)) {
					if live[oid] || oid == ManifestOID || !o.Store.Exists(oid) {
						continue
					}
					if err := o.Store.Delete(oid); err != nil {
						return "", err
					}
				}
			}
			o.Store.Flight().Record(int64(o.Clk.Now()), flight.EvRecv, int64(srcEpoch), int64(baseEpoch), int64(len(live)), name)
			if _, err := o.Store.CheckpointRetaining(retain); err != nil {
				// Nothing committed, so the base this receiver holds has not
				// moved: advancing it here would refuse every later delta.
				// What the stream wrote joins the held set, so the retry
				// still deletes whatever its epoch no longer lists.
				if state != nil {
					for oid := range live {
						state.live[oid] = true
					}
				}
				return "", err
			}
			o.recvState[name] = &recvGroupState{epoch: srcEpoch, live: live, image: o.publish(image, live, landed)}
			return name, nil
		case itemRecord:
			oid := objstore.OID(d.U64())
			ut := d.U16()
			if err := o.Store.PutRecord(oid, ut, d.View()); err != nil {
				return "", err
			}
		case itemPages:
			oid := objstore.OID(d.U64())
			arg := d.I64()
			if oid == cur && arg >= 0 {
				pages = append(pages, objstore.PageWrite{Pg: arg, Data: d.View()})
				if len(pages) < recvBatch {
					continue
				}
			}
			if err := land(); err != nil {
				return "", err
			}
			switch {
			case oid != cur:
				// Run header: arg is the object size.
				o.Store.Ensure(oid, UTMemObject)
				cur = oid
			case arg < 0:
				cur = 0 // run sentinel
			}
		case itemJournal:
			oid := objstore.OID(d.U64())
			ut := d.U16()
			capacity := d.I64()
			run := objstore.FrameRun{Gen: d.U64(), FlushedSeq: d.U64(), Off: d.I64(), Frames: d.View()}
			// The standby keeps the frames it was sent: a run of the
			// generation it holds lands at its offset, any other starts a
			// fresh extent. Frames the store refuses are a corrupt stream.
			if err := o.Store.WriteFrames(oid, ut, capacity, run); err != nil {
				if errors.Is(err, objstore.ErrFrames) {
					err = fmt.Errorf("%w: %w", rec.ErrCorrupt, err)
				}
				return "", err
			}
		}
	}
}

// checkItems walks a stream's items up to its end marker and refuses the
// stream at the first item that fails its sum, names an unknown kind or an
// object the stream may not write (listed), or carries a page that is not
// one block. It returns the retention the group's record carries. Past it,
// only the store can refuse an item.
func checkItems(items []byte, groupOID objstore.OID, listed func(objstore.OID) error) (retain int, err error) {
	var cur objstore.OID // the open page run's object, as the apply pass tracks it
	for {
		var item []byte
		if item, items, err = rec.NextRecord(items, maxStreamItem); err != nil {
			return 0, err
		}
		d, err := rec.NewDecoder(item)
		if err != nil {
			return 0, err
		}
		kind := d.U8()
		if kind == itemEnd {
			return retain, nil
		}
		oid := objstore.OID(d.U64())
		var raw []byte
		switch kind {
		case itemRecord:
			d.U16()
			raw = d.View()
		case itemPages:
			switch arg := d.I64(); {
			case oid != cur:
				cur = oid // run header
			case arg < 0:
				cur = 0 // run sentinel
			default:
				if data := d.View(); d.Err() == nil && len(data) != objstore.BlockSize {
					return 0, fmt.Errorf("%w: page %d of object %d carries %d bytes", rec.ErrCorrupt, arg, oid, len(data))
				}
			}
		case itemJournal:
			d.U16()  // utype
			d.I64()  // capacity
			d.U64()  // generation
			d.U64()  // flushed seq
			d.I64()  // offset
			d.View() // frames
		default:
			return 0, fmt.Errorf("sls: unknown stream item %d", kind)
		}
		if err := d.Err(); err != nil {
			return 0, err
		}
		if err := listed(oid); err != nil {
			return 0, err
		}
		if kind == itemRecord && oid == groupOID {
			// The standby's commit trims by the bound every stream resends.
			gr, err := decodeGroupRecord(raw)
			if err != nil {
				return 0, err
			}
			retain = gr.retain
		}
	}
}

// MigrateStats reports a pre-copy live migration.
type MigrateStats struct {
	FinalStop time.Duration // source stop during the final round
}

// MigrateVia performs iterative pre-copy live migration (§10): a replica
// that fails over on purpose. Round 0 ships the full image, then `rounds`
// delta rounds resend only what changed while the application kept running
// (work is called before each to model that execution), then a final short
// stop-and-copy round after which the source terminates and the destination
// restores. The returned group is the application running on dst. conn is
// Replica's: nil selects the direct path. A round that fails drops the
// receiver's session and leaves the source group running.
func (g *Group) MigrateVia(dst *Orchestrator, rounds int, work func() error, conn *net.Conn) (*Group, MigrateStats, error) {
	var st MigrateStats
	r := &Replica{g: g, dst: dst, conn: conn}
	round := func(run func() error) error {
		if run != nil {
			if err := run(); err != nil {
				return err
			}
		}
		cst, err := r.sync()
		if err != nil {
			return err
		}
		st.FinalStop = cst.StopTime
		return nil
	}
	err := round(nil) // the full image: the replica holds no base yet
	for i := 0; i < rounds && err == nil; i++ {
		err = round(work) // pre-copy: the application ran since the last round
	}
	if err == nil {
		err = round(nil) // stop-and-copy: the application's last stop on the source
	}
	if err != nil {
		r.Abandon()
		return nil, st, err
	}
	for _, p := range g.Procs() {
		p.Exit(0)
	}
	g.o.Forget(g)
	restored, _, err := r.Failover(RestoreLazy)
	return restored, st, err
}

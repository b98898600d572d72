package sls

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"aurora/internal/flight"
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

// Send writes the group's last committed state to w. The group must have
// checkpointed at least once. Network transfer time is charged per byte.
func (g *Group) Send(w io.Writer) error { return g.send(w, 0) }

// SendDelta writes only the state that changed since the retained epoch
// `since` — one round of pre-copy live migration. Records are small and
// always resent; memory pages resend only where the stored block moved.
// The receiver must already hold the group from a previous Send.
func (g *Group) SendDelta(w io.Writer, since objstore.Epoch) error {
	if since == 0 {
		return fmt.Errorf("sls: SendDelta needs a base epoch")
	}
	return g.send(w, since)
}

// send serializes the stream and charges direct-path wire time — the
// in-process byte-copy transport, kept as the nil-link case.
func (g *Group) send(w io.Writer, since objstore.Epoch) error {
	sent, _, err := g.encodeStream(w, since, nil)
	if err != nil {
		return err
	}
	g.o.chargeDirectWire(sent)
	return nil
}

// chargeDirectWire charges the direct path's wire time for an n-byte stream:
// one round trip and the bytes, as one lump.
func (o *Orchestrator) chargeDirectWire(n int64) {
	o.Clk.Advance(o.Costs.NetRTT + time.Duration(n)*o.Costs.NetPerByte)
}

// journalMarks holds, per journal, the position in its frames a standby has.
type journalMarks map[objstore.OID]objstore.JournalMark

// encodeStream serializes the group's last committed state (full when
// since==0, delta otherwise) to w and returns the bytes written and, per
// journal, the mark at the frames it shipped. A delta ships a journal's frames
// past its mark in marks; a full stream, or a journal marks lacks, ships them
// all. No wire time is charged: callers either charge the direct-path cost
// (send) or let a simulated transport charge per frame (internal/net).
func (g *Group) encodeStream(w io.Writer, since objstore.Epoch, marks journalMarks) (int64, journalMarks, error) {
	if g.lastEpoch == 0 {
		return 0, nil, fmt.Errorf("sls: group %q has no committed checkpoint to send", g.Name)
	}
	if since == 0 {
		marks = nil
	}
	shipped := make(journalMarks, len(g.journals))
	bw := bufio.NewWriter(w)
	sent := int64(0)
	emit := func(b []byte) error {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(b)))
		if _, err := bw.Write(hdr[:]); err != nil {
			return err
		}
		_, err := bw.Write(b)
		sent += int64(len(b)) + 4
		return err
	}

	// Group record itself plus every object it referenced last epoch, in
	// ascending-OID order: the stream must be byte-identical across runs
	// of the same state (map iteration order would shuffle the items and
	// break stream-level determinism checks and dedup on the receive side).
	// Only objects that still exist are listed — the head's live list is
	// the receiver's contract for which OIDs this epoch contains, and on a
	// delta it deletes anything it holds that is no longer listed.
	oids := make([]objstore.OID, 0, len(g.prevLive)+1)
	oids = append(oids, g.oid)
	rest := make([]objstore.OID, 0, len(g.prevLive))
	for oid := range g.prevLive {
		if oid != g.oid {
			rest = append(rest, oid)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
	oids = append(oids, rest...)
	live := oids[:0:0]
	for _, oid := range oids {
		if g.o.Store.Exists(oid) {
			live = append(live, oid)
		}
	}

	head := rec.NewEncoder()
	head.U32(streamMagic)
	head.U8(streamVersion)
	head.Str(g.Name)
	head.U64(uint64(g.oid))
	head.U64(uint64(g.lastEpoch)) // epoch this stream carries
	head.U64(uint64(since))       // base epoch a delta applies over (0 = full)
	head.U32(uint32(len(live)))
	for _, oid := range live {
		head.U64(uint64(oid))
	}
	if err := emit(head.Seal()); err != nil {
		return 0, nil, err
	}

	for _, oid := range live {
		ut, err := g.o.Store.UType(oid)
		if err != nil {
			return 0, nil, err
		}
		if isJournalOID(g, oid) {
			if shipped[oid], err = g.sendJournal(oid, ut, marks[oid], emit); err != nil {
				return 0, nil, err
			}
			continue
		}
		if ut == UTMemObject {
			if err := g.sendPages(oid, since, emit); err != nil {
				return 0, nil, err
			}
			continue
		}
		raw, err := g.o.Store.GetRecord(oid)
		if err != nil {
			return 0, nil, err
		}
		e := rec.NewEncoder()
		e.U8(itemRecord)
		e.U64(uint64(oid))
		e.U16(ut)
		e.Bytes(raw)
		if err := emit(e.Seal()); err != nil {
			return 0, nil, err
		}
	}
	e := rec.NewEncoder()
	e.U8(itemEnd)
	if err := emit(e.Seal()); err != nil {
		return 0, nil, err
	}
	if err := bw.Flush(); err != nil {
		return 0, nil, err
	}
	return sent, shipped, nil
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
// only the changed set for a delta.
func (g *Group) sendPages(oid objstore.OID, since objstore.Epoch, emit func([]byte) error) error {
	size, err := g.o.Store.Size(oid)
	if err != nil {
		return err
	}
	head := rec.NewEncoder()
	head.U8(itemPages)
	head.U64(uint64(oid))
	head.I64(size)
	if err := emit(head.Seal()); err != nil {
		return err
	}
	emitPage := func(pg int64, data []byte) error {
		e := rec.NewEncoder()
		e.U8(itemPages)
		e.U64(uint64(oid))
		e.I64(pg)
		e.Bytes(data)
		return emit(e.Seal())
	}
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
	if full {
		_, err = g.o.Store.EachPageBulk(oid, emitPage)
	} else {
		err = g.o.Store.EachPageOf(oid, changed, emitPage)
	}
	if err != nil {
		return err
	}
	// Page runs end with a sentinel page index of -1.
	tail := rec.NewEncoder()
	tail.U8(itemPages)
	tail.U64(uint64(oid))
	tail.I64(-1)
	tail.Bytes(nil)
	return emit(tail.Seal())
}

// sendJournal streams a journal's frames past from as they lie in its extent,
// in items of whole frames that fit maxStreamItem — all of the current
// generation's when from is not a position in it — and returns the mark at
// the tail.
func (g *Group) sendJournal(oid objstore.OID, ut uint16, from objstore.JournalMark, emit func([]byte) error) (objstore.JournalMark, error) {
	j, err := g.o.Store.OpenJournal(oid)
	if err != nil {
		return from, err
	}
	runs, to, err := j.ReadFrames(from, maxStreamItem-journalItemHead)
	if err != nil {
		return from, err
	}
	for _, run := range runs {
		if err := emit(journalItem(oid, ut, j.Capacity(), run)); err != nil {
			return from, err
		}
	}
	return to, nil
}

// journalItem encodes one run of a journal's frames as a stream item.
func journalItem(oid objstore.OID, ut uint16, capacity int64, run objstore.FrameRun) []byte {
	e := rec.NewEncoder()
	e.Grow(journalItemHead + len(run.Frames))
	e.U8(itemJournal)
	e.U64(uint64(oid))
	e.U16(ut)
	e.I64(capacity)
	e.U64(run.Gen)
	e.U64(run.FlushedSeq)
	e.I64(run.Off)
	e.Bytes(run.Frames)
	return e.Seal()
}

// recvGroupState tracks what a receiver holds for one replicated group:
// the epoch of the last applied stream and the OIDs it carried. Deltas are
// validated against it (a delta whose base the receiver does not hold is
// rejected before any store mutation) and it drives deletion of objects
// that vanished between epochs.
type recvGroupState struct {
	epoch objstore.Epoch
	live  map[objstore.OID]bool
}

// Recv reads a checkpoint stream into the local store and registers the
// group in the manifest, committing when done. It returns the group name;
// RestoreGroup then resumes the application.
func (o *Orchestrator) Recv(r io.Reader) (string, error) {
	br := bufio.NewReader(r)
	next := func() (*rec.Decoder, error) {
		var hdr [4]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return nil, err
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n > maxStreamItem {
			// The length header is untrusted input off the wire: a corrupt
			// value must produce a decode error, not a giant allocation.
			return nil, fmt.Errorf("%w: stream item of %d bytes exceeds cap %d", rec.ErrCorrupt, n, maxStreamItem)
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(br, body); err != nil {
			return nil, err
		}
		return rec.NewDecoder(body)
	}

	head, err := next()
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
	if err := head.Err(); err != nil {
		return "", err
	}
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
	// listed, and never the receiver's own manifest or flight ring. Checked
	// before the item mutates the store.
	listed := func(oid objstore.OID) error {
		if !live[oid] || oid == ManifestOID || oid == objstore.FlightOID {
			return fmt.Errorf("%w: stream item for object %d, which is not the stream's to write", rec.ErrCorrupt, oid)
		}
		return nil
	}

	// Validate a delta against what this receiver holds BEFORE any store
	// mutation: applying page deltas over the wrong base would silently
	// corrupt the standby image.
	if o.recvState == nil {
		o.recvState = make(map[string]*recvGroupState)
	}
	state := o.recvState[name]
	if delta {
		if state == nil {
			return "", fmt.Errorf("sls: delta stream for group %q but no base image received", name)
		}
		if state.epoch != baseEpoch {
			return "", fmt.Errorf("sls: delta stream for group %q needs base epoch %d, receiver holds %d",
				name, baseEpoch, state.epoch)
		}
	}

	// A full stream registers a new group. Refuse it here, before the first
	// item writes an object, if the manifest cannot be read or already lists
	// the name; the entries ride to the end of the stream, where the group's
	// own joins them and the record is written.
	var manifest []manifestEntry
	if !delta {
		if manifest, err = readManifest(o.Store); err != nil {
			return "", err
		}
		for _, ent := range manifest {
			if ent.name == name {
				return "", fmt.Errorf("sls: group %q already exists on this machine", name)
			}
		}
	}

	// Pending page run state, and the retention of the group record seen.
	var curPages objstore.OID
	retain := 0
	for {
		d, err := next()
		if err != nil {
			return "", err
		}
		switch kind := d.U8(); kind {
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
				// ManifestOID and FlightOID live outside any group's live
				// set: the manifest indexes every group on the receiver, and
				// the flight ring is the receiver's own forensic record.
				stale := make([]objstore.OID, 0)
				for oid := range state.live {
					if !live[oid] && oid != ManifestOID && oid != objstore.FlightOID {
						stale = append(stale, oid)
					}
				}
				sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
				for _, oid := range stale {
					if !o.Store.Exists(oid) {
						continue
					}
					if err := o.Store.Delete(oid); err != nil {
						return "", err
					}
				}
			}
			if fl := o.Store.Flight(); fl != nil {
				fl.Record(int64(o.Clk.Now()), flight.EvRecv, int64(srcEpoch), int64(baseEpoch), int64(len(live)), name)
			}
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
			o.recvState[name] = &recvGroupState{epoch: srcEpoch, live: live}
			return name, nil
		case itemRecord:
			oid := objstore.OID(d.U64())
			ut := d.U16()
			raw := d.Bytes()
			if err := d.Err(); err != nil {
				return "", err
			}
			if err := listed(oid); err != nil {
				return "", err
			}
			if oid == groupOID {
				// The standby's commit trims by the bound every stream resends.
				gr, err := decodeGroupRecord(raw)
				if err != nil {
					return "", err
				}
				retain = gr.retain
			}
			if err := o.Store.PutRecord(oid, ut, raw); err != nil {
				return "", err
			}
		case itemPages:
			oid := objstore.OID(d.U64())
			arg := d.I64()
			if err := listed(oid); err != nil {
				return "", err
			}
			if curPages != oid {
				// Run header: arg is the object size.
				o.Store.Ensure(oid, UTMemObject)
				curPages = oid
				continue
			}
			if arg < 0 {
				curPages = 0 // run sentinel
				continue
			}
			data := d.Bytes()
			if err := d.Err(); err != nil {
				return "", err
			}
			if err := o.Store.WritePage(oid, arg, data); err != nil {
				return "", err
			}
		case itemJournal:
			oid := objstore.OID(d.U64())
			ut := d.U16()
			capacity := d.I64()
			run := objstore.FrameRun{Gen: d.U64(), FlushedSeq: d.U64(), Off: d.I64(), Frames: d.Bytes()}
			if err := d.Err(); err != nil {
				return "", err
			}
			if err := listed(oid); err != nil {
				return "", err
			}
			// The standby keeps the frames it was sent: a run of the
			// generation it holds lands at its offset, any other starts a
			// fresh extent. Frames the store refuses are a corrupt stream.
			if err := o.Store.WriteFrames(oid, ut, capacity, run); err != nil {
				if errors.Is(err, objstore.ErrFrames) {
					err = fmt.Errorf("%w: %w", rec.ErrCorrupt, err)
				}
				return "", err
			}
		default:
			return "", fmt.Errorf("sls: unknown stream item %d", kind)
		}
	}
}

// MigrateStats reports a pre-copy live migration.
type MigrateStats struct {
	Rounds int
	// RoundBytes is each round's stream size (full, then deltas) — the bytes
	// the receiver applies, the same on the direct path and over a wire.
	RoundBytes []int64
	FinalStop  time.Duration // source stop during the final round
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
		st.Rounds++
		st.RoundBytes = append(st.RoundBytes, r.LastBytes)
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

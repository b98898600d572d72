package sls

import (
	"fmt"
	"time"

	"aurora/internal/flight"
	"aurora/internal/net"
	"aurora/internal/objstore"
	"aurora/internal/rec"
	"aurora/internal/trace"
)

// High availability (§3): "sls send" can continually feed incremental
// checkpoints to a remote host. A Replica wraps that loop: after a full
// seed transfer, each Sync ships only the delta since the last shipped
// epoch; Failover restores the application on the standby from the last
// synced state.
//
// Replication runs either over the direct in-process path (conn == nil —
// the original byte copy, wire time charged as one lump) or over a
// simulated lossy network (internal/net): each ship is one resumable
// transfer keyed by the shipped checkpoint epoch. A ship that exhausts its
// retries (partition outlasting the backoff budget) leaves the encoded
// stream pending; the next Sync — or an explicit Resume — re-ships only
// the frames the standby has not acked, then applies the stream.
//
// Live migration (Group.MigrateVia) is this lifecycle on purpose: seed, a
// sync per round, the source exits, failover.

// Replica is a warm standby of a group on another orchestrator.
type Replica struct {
	g    *Group
	dst  *Orchestrator
	conn *net.Conn
	base objstore.Epoch // last epoch the standby holds
	// marks is, per journal, the position in its frames the standby holds:
	// the next ship sends only the frames past it.
	marks journalMarks

	// pending is a ship that ran out of retries mid-transfer; Resume (or
	// the next Sync) completes it from the receiver's high-water mark.
	pending *pendingShip
	// spare is the stream buffer the next ship encodes into: the last landed
	// delta's, unless it is more than twice the size of its stream. A ship
	// owns its buffer until it lands, so a pending one is never reused.
	spare *rec.Encoder

	// failedOver retires the replica once its standby has been promoted;
	// every later Sync/Resume/Failover returns ErrFailedOver.
	failedOver bool

	Syncs      int
	BytesTotal int64 // stream bytes applied to the standby
	LastBytes  int64
	LastLag    time.Duration // checkpoint cut to standby-applied

	// Wire-level accounting, zero on the direct path.
	WireBytes   int64 // bytes put on the forward wire, framing + retransmits
	Retransmits int64
	Backoffs    int64
	Resumes     int64 // ships completed from a pending transfer
}

// pendingShip is one encoded stream on its way to the standby; the replica
// keeps it (pending) when its transfer did not complete.
type pendingShip struct {
	epoch    uint64 // transfer key: the shipped checkpoint epoch
	newBase  objstore.Epoch
	marks    journalMarks // the journal positions the standby holds once it lands
	enc      *rec.Encoder // the stream buffer, owned by the ship until it lands
	data     []byte       // the stream: enc's bytes
	cutStart time.Duration
}

// ReplicateToVia seeds a standby with the group's full state over a
// simulated network connection (conn == nil selects the direct path) and
// returns the replication handle. The group must be checkpointing (the seed
// takes a checkpoint if none exists). The seed transfer itself is
// resumable: on ErrRetriesExhausted the returned replica is still live and
// Resume completes the seed once the wire heals.
func (g *Group) ReplicateToVia(dst *Orchestrator, conn *net.Conn) (*Replica, error) {
	if g.lastEpoch == 0 {
		if _, err := g.Checkpoint(CkptIncremental); err != nil {
			return nil, err
		}
		if err := g.Barrier(); err != nil {
			return nil, err
		}
	}
	r := &Replica{g: g, dst: dst, conn: conn}
	if err := r.ship(0, g.o.Clk.Now()); err != nil {
		if r.pending != nil {
			// Seed cut off mid-transfer: the handle is usable, Resume
			// finishes the job.
			return r, err
		}
		return nil, err
	}
	return r, nil
}

// Sync takes a checkpoint and ships the delta to the standby. A pending
// interrupted ship is completed first — its epoch must land before any
// later delta can apply.
func (r *Replica) Sync() error {
	if err := r.Resume(); err != nil {
		return err
	}
	_, err := r.sync()
	return err
}

// sync is one replication round: checkpoint, make it durable, ship what the
// standby lacks (everything, while it holds no base). A migration round is
// the same thing.
func (r *Replica) sync() (CheckpointStats, error) {
	cutStart := r.g.o.Clk.Now()
	cst, err := r.g.Checkpoint(CkptIncremental)
	if err != nil {
		return cst, err
	}
	if err := r.g.Barrier(); err != nil {
		return cst, err
	}
	return cst, r.ship(r.base, cutStart)
}

// Resume completes a ship interrupted by retry exhaustion, re-sending only
// the frames the standby has not acked. No-op when nothing is pending.
func (r *Replica) Resume() error {
	if r.failedOver {
		return ErrFailedOver
	}
	if r.pending == nil {
		return nil
	}
	p := r.pending
	span := r.g.o.Tracer.Begin(trace.TrackSLS, "sls.replica.resume", trace.I("epoch", int64(p.epoch)))
	if fl := r.g.o.Store.Flight(); fl != nil {
		fl.Record(int64(r.g.o.Clk.Now()), flight.EvReplResume, int64(p.epoch), int64(len(p.data)), 0, "")
	}
	err := r.wire(p, span, "resuming replication of")
	if r.pending == nil {
		r.Resumes++ // the transfer completed, whatever became of landing it
	}
	return err
}

// Pending reports whether an interrupted ship awaits Resume.
func (r *Replica) Pending() bool { return r.pending != nil }

// Abandon retires the handle without promoting the standby: any pending
// ship is dropped and its receiver session discarded, and every later
// Sync/Resume/Failover returns ErrFailedOver. A coordinator calls this
// when the primary moves (live migration) — the handle's source group no
// longer exists, so shipping through it would replicate a corpse. The
// standby's resident image of the group goes back to its memory.
func (r *Replica) Abandon() {
	r.dropPending()
	r.failedOver = true
	if rs := r.dst.recvState[r.g.Name]; rs != nil {
		rs.image.drop(r.dst.K.VM.PM, nil)
	}
}

// dropPending forgets an interrupted ship on both ends: the encoded stream
// here and the receiver's session with its buffered frames. Only a wire
// transfer is ever left pending.
func (r *Replica) dropPending() {
	if r.pending != nil {
		r.conn.Abort(r.pending.epoch)
		r.pending = nil
	}
}

// Base returns the last checkpoint epoch the standby holds — the "caught
// up to epoch N" a failover scenario asserts before pulling the plug.
func (r *Replica) Base() objstore.Epoch { return r.base }

// ship encodes the group's last committed state (full when since==0, else
// the delta), moves the stream to the standby, and lands it there.
func (r *Replica) ship(since objstore.Epoch, cutStart time.Duration) error {
	e := r.spare
	if r.spare = nil; e == nil {
		e = rec.NewEncoder()
	}
	e.Reset()
	marks, err := r.g.encodeStream(e, since, r.marks)
	if err != nil {
		return err
	}
	p := &pendingShip{epoch: uint64(r.g.lastEpoch), newBase: r.g.lastEpoch, marks: marks, enc: e, data: e.Raw(), cutStart: cutStart}
	return r.move(p, since)
}

// move is the one place the transport is chosen. The direct path (conn == nil)
// is the in-process byte copy: wire time charged as one lump, the stream
// landed as encoded — the reference the network sweeps compare against.
// Otherwise the stream crosses the simulated wire as one resumable transfer.
func (r *Replica) move(p *pendingShip, since objstore.Epoch) error {
	o := r.g.o
	if r.conn == nil {
		o.chargeDirectWire(int64(len(p.data)))
		return r.land(p, p.data, 0, 0)
	}
	span := o.Tracer.Begin(trace.TrackSLS, "sls.replica.ship",
		trace.I("epoch", int64(p.epoch)), trace.I("bytes", int64(len(p.data))), trace.I("since", int64(since)))
	if fl := o.Store.Flight(); fl != nil {
		fl.Record(int64(o.Clk.Now()), flight.EvReplShip, int64(p.epoch), int64(len(p.data)), int64(since), "")
	}
	return r.wire(p, span, "replicating")
}

// wire runs p's transfer, keyed by its epoch, and lands the payload the
// connection assembled; span covers both. A transfer that runs out of retries
// leaves p pending: the receiver holds its partial progress under the epoch
// key, and Resume re-ships only the missing tail.
func (r *Replica) wire(p *pendingShip, span trace.Span, doing string) error {
	st, err := r.conn.Transfer(p.epoch, p.data)
	r.accumulate(st)
	if err != nil {
		r.pending = p
		span.End(trace.S("err", err.Error()))
		return fmt.Errorf("sls: %s epoch %d: %w", doing, p.epoch, err)
	}
	r.pending = nil
	// The frame header carried the sender's trace-context, and Take clears
	// the session that remembers it.
	src, sender, _ := r.conn.SessionContext(p.epoch)
	payload, ok := r.conn.Take(p.epoch)
	if !ok {
		err = fmt.Errorf("sls: transfer for epoch %d reported done but is not takeable", p.epoch)
	} else {
		err = r.land(p, payload, src, sender)
	}
	span.End()
	return err
}

// land is the one tail of every ship: bring the standby's clock up to the
// stream's arrival, apply the stream to its store, record the sync. (src,
// sender) is the trace-context a traced wire transfer carried, zero otherwise:
// the standby's apply instant gets the matching flow id, and the merged fleet
// timeline draws ship -> apply as one arrow across machine tracks.
func (r *Replica) land(p *pendingShip, payload []byte, src, sender uint64) error {
	r.arrive()
	if dtr := r.dst.Tracer; dtr != nil && (src != 0 || sender != 0) {
		dtr.Instant(trace.TrackNet, "net.apply",
			trace.I("epoch", int64(p.epoch)),
			trace.I(trace.FlowIn, int64(trace.FlowID(src, sender))))
	}
	if _, err := r.dst.recvPayload(payload); err != nil {
		return err
	}
	r.commit(p)
	return nil
}

// arrive moves the standby's clock up to the sender's: a stream is not received
// before it was sent. Nothing else moves a standby on a clock of its own, whose
// device queue then never drained — no release promoted, Failover waiting out
// every write it ever took. A no-op on a shared fleet clock.
func (r *Replica) arrive() {
	if behind := r.g.o.Clk.Now() - r.dst.Clk.Now(); behind > 0 {
		r.dst.Clk.Advance(behind)
	}
}

// commit records a landed ship: what the standby now holds, and the
// replica's accounting.
func (r *Replica) commit(p *pendingShip) {
	n := int64(len(p.data))
	if r.base != 0 && cap(p.data) <= 2*len(p.data) {
		r.spare = p.enc // not the seed's, which the deltas after it would not fill
	}
	r.base, r.marks = p.newBase, p.marks
	r.Syncs++
	r.BytesTotal += n
	r.LastBytes = n
	r.LastLag = r.g.o.Clk.Now() - p.cutStart
	if tr := r.g.o.Tracer; tr != nil {
		tr.Count("sls.replica.syncs", 1)
		tr.Count("sls.replica.bytes", n)
		tr.Observe("sls.replica.lag.ns", int64(r.LastLag))
	}
}

func (r *Replica) accumulate(st net.TransferStats) {
	r.WireBytes += st.WireBytes
	r.Retransmits += st.Retransmits
	r.Backoffs += st.Backoffs
}

// ErrFailedOver reports an operation on a replica whose standby has already
// been promoted: the replication relationship is over, and any further
// Sync/Resume/Failover would write the dead primary's state into a live
// machine.
var ErrFailedOver = fmt.Errorf("sls: replica already failed over")

// Failover restores the application on the standby from the last synced
// state — the primary is presumed dead (its state is not touched).
//
// A ship pending at failover time never committed on the standby: its
// applied frames sit in the receiver's session buffer, not the store, so the
// restore source is already exactly the last committed base. What must NOT
// survive is the session itself — a later Resume would complete the transfer
// and apply the dead primary's delta over the promoted standby's live state.
// Failover therefore drops the pending ship on both ends and retires the
// replica: subsequent Sync/Resume/Failover return ErrFailedOver.
func (r *Replica) Failover(mode RestoreMode) (*Group, RestoreStats, error) {
	if r.failedOver {
		return nil, RestoreStats{}, ErrFailedOver
	}
	if r.Syncs == 0 {
		return nil, RestoreStats{}, fmt.Errorf("sls: replica never seeded")
	}
	r.dropPending()
	g, st, err := r.dst.RestoreGroup(r.g.Name, r.dst.Store, mode, true)
	if err != nil {
		return nil, st, err
	}
	r.failedOver = true
	return g, st, nil
}

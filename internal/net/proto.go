package net

// The replication wire protocol: a payload (one serialized checkpoint
// stream) is cut into CRC-checked frames and shipped over a Pipe under a
// selective-repeat ack window. Every transfer is keyed by an epoch; the
// receiver keeps per-epoch sessions with a cumulative next-expected
// sequence, so frame application is idempotent (duplicates and stale
// retransmissions re-ack without re-applying) and a transfer killed
// mid-stream resumes from the first unacked frame instead of restarting —
// the handshake returns the receiver's high-water mark and the sender ships
// only what is missing.
//
// Selective acknowledgement (RFC 2018): a session holds up to sackSpan (64)
// frames past a gap, discards any further ahead, and drains the held ones
// the moment the gap fills. While it holds any, its Ack carries an 8-byte
// little-endian bitmap after the cumulative next, bit i meaning frame
// next+1+i is held; an Ack from a session holding nothing has no payload,
// so a clean wire carries the bytes it always did. The pump delivers
// everything in flight before the sender looks, so a hole below the highest
// SACKed frame on the sender's scoreboard is lost, not late, and is resent
// at once. A transfer completes on the cumulative ack alone.
//
// Loss no SACK reveals (at the tail, or of a resend or an ack) waits out a
// capped exponential backoff in virtual time; the sender then forgets every
// SACK (RFC 2018 §8: the receiver may have reneged) and resends the first
// unacked frame, whose ack rebuilds the scoreboard. After MaxRetries timeouts
// with no cumulative progress the transfer returns ErrRetriesExhausted with
// the session state intact for a later resume.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"time"

	"aurora/internal/clock"
	"aurora/internal/flight"
	"aurora/internal/rec"
	"aurora/internal/trace"
)

// frameMagic heads every wire frame ("AURF").
const frameMagic = 0x41555246

// FrameType discriminates wire frames.
type FrameType uint8

// Frame types.
const (
	FrameHello    FrameType = iota + 1 // sender -> receiver: open/resume a transfer
	FrameHelloAck                      // receiver -> sender: next expected seq
	FrameData                          // sender -> receiver: one payload chunk
	FrameAck                           // receiver -> sender: cumulative next expected seq [+ SACK bitmap]
)

// sackSpan is how many frames past a gap a session holds: one bit each in
// an Ack's sackBytes-byte bitmap.
const (
	sackSpan  = 64
	sackBytes = sackSpan / 8
)

// MaxFramePayload bounds one data frame's payload. Decode rejects anything
// larger, so a corrupt length can never drive a giant allocation.
const MaxFramePayload = 256 << 10

// MaxTransferFrames bounds a transfer's frame count at decode time.
const MaxTransferFrames = 1 << 30

// maxPresize bounds the payload buffer a session reserves on a Hello's frame
// count alone.
const maxPresize = 16 << 20

// ErrRetriesExhausted reports a transfer that gave up after MaxRetries
// consecutive ack rounds without progress. The receiver session survives;
// a later Transfer with the same epoch resumes from the first unacked frame.
var ErrRetriesExhausted = errors.New("net: retries exhausted")

// ErrFrame reports a frame that failed structural validation after its CRC
// passed (bad magic, unknown type, oversized fields).
var ErrFrame = errors.New("net: bad frame")

// Frame is one decoded wire frame.
type Frame struct {
	Type    FrameType
	Epoch   uint64 // transfer key
	Seq     uint64 // Data: frame index; Ack/HelloAck: next expected index
	Total   uint64 // frames in the transfer
	SrcID   uint64 // trace-context: sending machine id (0 = untraced)
	SpanID  uint64 // trace-context: sender's transfer span id (0 = untraced)
	Payload []byte // Data: the chunk; Ack: empty, or the sackBytes SACK bitmap. Aliases the decoded frame.
}

// frameHead is what a frame spends besides its payload: magic, type, five
// header words, the payload's length and the CRC.
const frameHead = 4 + 1 + 5*8 + 4 + 4

// EncodeFrame seals one frame with an empty trace-context: magic, header,
// payload, CRC.
func EncodeFrame(t FrameType, epoch, seq, total uint64, payload []byte) []byte {
	return EncodeFrameCtx(t, epoch, seq, total, 0, 0, payload)
}

// EncodeFrameCtx seals one frame carrying a trace-context — the sending
// machine's id and the transfer span id — so the receiver can stitch the
// ship into a cross-machine flow on the merged fleet timeline.
func EncodeFrameCtx(t FrameType, epoch, seq, total, src, span uint64, payload []byte) []byte {
	e := rec.NewEncoder()
	e.Grow(frameHead + len(payload))
	e.U32(frameMagic)
	e.U8(uint8(t))
	e.U64(epoch)
	e.U64(seq)
	e.U64(total)
	e.U64(src)
	e.U64(span)
	e.Bytes(payload)
	return e.Seal()
}

// DecodeFrame verifies the CRC and structure of one wire frame. A corrupted
// frame decodes to an error, never to a plausible-but-wrong Frame: the CRC
// covers every header field and the payload. The payload is not copied: it
// aliases b, which a frame off the wire never changes after.
func DecodeFrame(b []byte) (*Frame, error) {
	d, err := rec.NewDecoder(b)
	if err != nil {
		return nil, err
	}
	if d.U32() != frameMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrFrame)
	}
	f := &Frame{
		Type:   FrameType(d.U8()),
		Epoch:  d.U64(),
		Seq:    d.U64(),
		Total:  d.U64(),
		SrcID:  d.U64(),
		SpanID: d.U64(),
	}
	f.Payload = d.View()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrFrame, d.Remaining())
	}
	if f.Type < FrameHello || f.Type > FrameAck {
		return nil, fmt.Errorf("%w: unknown type %d", ErrFrame, f.Type)
	}
	if len(f.Payload) > MaxFramePayload {
		return nil, fmt.Errorf("%w: payload %d exceeds cap %d", ErrFrame, len(f.Payload), MaxFramePayload)
	}
	if f.Total > MaxTransferFrames {
		return nil, fmt.Errorf("%w: total %d exceeds cap %d", ErrFrame, f.Total, MaxTransferFrames)
	}
	if f.Type != FrameData && len(f.Payload) != 0 && (f.Type != FrameAck || len(f.Payload) != sackBytes) {
		return nil, fmt.Errorf("%w: type %d carries %d payload bytes", ErrFrame, f.Type, len(f.Payload))
	}
	if f.Type == FrameData && f.Seq >= f.Total {
		return nil, fmt.Errorf("%w: data seq %d outside total %d", ErrFrame, f.Seq, f.Total)
	}
	return f, nil
}

// Config tunes the transfer protocol. The zero value selects defaults.
type Config struct {
	// Window is the number of unacked frames kept in flight (default 16).
	Window int
	// FrameData is the payload bytes per frame (default 32 KiB, capped at
	// MaxFramePayload).
	FrameData int
	// RTO is the initial retransmit timeout; 0 derives it from the pipe's
	// latency and frame serialization time.
	RTO time.Duration
	// RTOCap bounds the exponential backoff (default 5 ms).
	RTOCap time.Duration
	// MaxRetries is how many timeouts in a row, with no cumulative ack
	// progress between them, a transfer (or handshake) tolerates before
	// giving up (default 10).
	MaxRetries int
}

func (c Config) withDefaults(p Params) Config {
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.FrameData <= 0 {
		c.FrameData = 32 << 10
	}
	if c.FrameData > MaxFramePayload {
		c.FrameData = MaxFramePayload
	}
	if c.RTO <= 0 {
		c.RTO = 2*(p.Latency+time.Duration(c.FrameData)*p.PerByte) + 100*time.Microsecond
	}
	if c.RTOCap <= 0 {
		c.RTOCap = 5 * time.Millisecond
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 10
	}
	return c
}

// session is the receiver side of one epoch's transfer.
type session struct {
	total    uint64
	next     uint64            // cumulative: frames [0, next) are applied
	sack     uint64            // bit i: frame next+1+i is held
	held     map[uint64][]byte // the frames sack names, by seq
	buf      []byte            // the payload assembled so far, sized once at the Hello
	complete bool
	srcID    uint64 // trace-context of the last frame that touched the session
	spanID   uint64
}

// ConnStats counts a connection's lifetime activity across transfers.
type ConnStats struct {
	Transfers    int64 // completed transfers
	Connects     int64 // successful handshakes
	Resumes      int64 // handshakes that skipped already-acked frames
	FramesSent   int64 // data frames put on the wire, including retransmits
	Retransmits  int64 // data frames re-sent within a transfer
	AcksSeen     int64 // ack frames processed by the sender
	DupDiscards  int64 // already-applied data frames discarded (re-acked)
	OOODiscards  int64 // data frames more than sackSpan past a gap, discarded
	Held         int64 // data frames held past a gap until it filled
	CorruptDrops int64 // frames rejected by CRC/structure checks
	Strays       int64 // well-formed frames for no live session
	Backoffs     int64 // timeout rounds slept
}

// TransferStats reports one Transfer call.
type TransferStats struct {
	Frames      uint64        // total frames in the payload
	ResumedFrom uint64        // first frame actually shipped (>0 on resume)
	FramesSent  int64         // data frames sent, including retransmits
	Retransmits int64         // data frames re-sent
	Backoffs    int64         // timeout rounds slept
	WireBytes   int64         // bytes put on the forward wire
	Elapsed     time.Duration // virtual time, connect to final ack
}

// Conn is one replication connection: both endpoints of a Pipe plus the
// receiver's session table. The synchronous simulation runs both sides in
// one call stack: Transfer pumps frames until the payload is acked, and the
// completed payload is collected with Take.
type Conn struct {
	pipe  *Pipe
	clk   clock.Clock
	cfg   Config
	tr    *trace.Tracer
	fl    *flight.Recorder
	src   uint64 // trace-context source id stamped on outgoing frames
	sess  map[uint64]*session
	stats ConnStats
}

// SetSource sets the trace-context machine id stamped on every outgoing
// Hello and Data frame. Zero (the default) ships an empty context.
func (c *Conn) SetSource(id uint64) { c.src = id }

// SetFlight attaches a flight recorder. Only transfer resumes are recorded
// — the single moment worth a forensic mark: a resume proves the wire
// failed mid-ship and the session survived it. Per-frame events would bury
// the ring under retransmit noise.
func (c *Conn) SetFlight(fl *flight.Recorder) { c.fl = fl }

// NewConn builds a connection over pipe. cfg zero-values select defaults;
// tr may be nil.
func NewConn(pipe *Pipe, clk clock.Clock, cfg Config, tr *trace.Tracer) *Conn {
	pipe.SetTracer(tr)
	return &Conn{
		pipe: pipe,
		clk:  clk,
		cfg:  cfg.withDefaults(pipe.Fwd.params),
		tr:   tr,
		sess: make(map[uint64]*session),
	}
}

// Stats returns a copy of the connection's counters.
func (c *Conn) Stats() ConnStats { return c.stats }

// Pipe returns the underlying wire, for mid-test fault arming.
func (c *Conn) Pipe() *Pipe { return c.pipe }

// SessionProgress reports the receiver's state for an epoch: frames applied
// so far, the transfer's total, and whether a session exists.
func (c *Conn) SessionProgress(epoch uint64) (next, total uint64, ok bool) {
	s := c.sess[epoch]
	if s == nil {
		return 0, 0, false
	}
	return s.next, s.total, true
}

// SessionContext returns the trace-context carried by the last frame that
// touched the epoch's session — the sending machine id and transfer span
// id a receiver stamps on its apply events to close the cross-machine
// flow. ok is false when no session exists or the sender was untraced.
func (c *Conn) SessionContext(epoch uint64) (src, span uint64, ok bool) {
	s := c.sess[epoch]
	if s == nil || (s.srcID == 0 && s.spanID == 0) {
		return 0, 0, false
	}
	return s.srcID, s.spanID, true
}

// Take removes and returns the assembled payload of a completed transfer.
func (c *Conn) Take(epoch uint64) ([]byte, bool) {
	s := c.sess[epoch]
	if s == nil || !s.complete {
		return nil, false
	}
	delete(c.sess, epoch)
	return s.buf, true
}

// Abort discards the receiver's session for an epoch, complete or not, and
// reports whether one existed. A failover uses it to drop a half-shipped
// transfer: once the standby is promoted, the dead primary's partial delta
// must never be resumable into it.
func (c *Conn) Abort(epoch uint64) bool {
	if _, ok := c.sess[epoch]; !ok {
		return false
	}
	delete(c.sess, epoch)
	return true
}

// pumpResult is what one drain of both wire directions told the sender.
type pumpResult struct {
	ackNext   uint64
	sack      uint64 // every ack's SACK bits, realigned to ackNext
	haveHello bool
	helloNext uint64
}

// pump runs the receiver over everything arriving on the forward link
// (applying data, emitting acks), then drains the reverse link into the
// sender's view. It advances the virtual clock to each frame's arrival.
func (c *Conn) pump(epoch uint64) pumpResult {
	var res pumpResult
	for {
		raw, ok := c.pipe.Fwd.Recv()
		if !ok {
			break
		}
		f, err := DecodeFrame(raw)
		if err != nil {
			c.stats.CorruptDrops++
			if c.tr != nil {
				c.tr.Instant(trace.TrackNet, "net.frame.corrupt-drop")
				c.tr.Count("net.frames.corrupt", 1)
			}
			continue
		}
		switch f.Type {
		case FrameHello:
			c.handleHello(f)
		case FrameData:
			c.handleData(f)
		default:
			c.stats.Strays++
		}
	}
	for {
		raw, ok := c.pipe.Rev.Recv()
		if !ok {
			break
		}
		f, err := DecodeFrame(raw)
		if err != nil {
			c.stats.CorruptDrops++
			continue
		}
		if f.Epoch != epoch {
			c.stats.Strays++
			continue
		}
		switch f.Type {
		case FrameAck:
			c.stats.AcksSeen++
			if f.Seq > res.ackNext {
				res.sack >>= f.Seq - res.ackNext
				res.ackNext = f.Seq
			}
			if len(f.Payload) == sackBytes {
				res.sack |= binary.LittleEndian.Uint64(f.Payload) >> (res.ackNext - f.Seq)
			}
		case FrameHelloAck:
			res.haveHello = true
			if f.Seq > res.helloNext {
				res.helloNext = f.Seq
			}
		default:
			c.stats.Strays++
		}
	}
	return res
}

// handleHello opens (or rediscovers) the receiver session for an epoch and
// acks its high-water mark. A replayed or reordered Hello for a live
// session is idempotent; a Hello whose total disagrees resets the session —
// same epoch, different payload is a caller contract break, and a fresh
// start corrupts nothing. A new session sizes its payload buffer once, for
// total full frames but never past maxPresize: a Hello is untrusted, and a
// payload larger than the cap grows as its frames arrive.
func (c *Conn) handleHello(f *Frame) {
	s := c.sess[f.Epoch]
	if s == nil || s.total != f.Total {
		s = &session{total: f.Total, buf: make([]byte, 0, min(f.Total*uint64(c.cfg.FrameData), maxPresize))}
		if f.Total == 0 {
			s.complete = true
		}
		c.sess[f.Epoch] = s
	}
	if f.SrcID != 0 || f.SpanID != 0 {
		s.srcID, s.spanID = f.SrcID, f.SpanID
	}
	c.pipe.Rev.Send(EncodeFrame(FrameHelloAck, f.Epoch, s.next, s.total, nil))
}

// handleData applies one data frame idempotently: the next expected frame
// extends the session and drains every held frame the gap was hiding; a
// frame at most sackSpan past the gap is held; anything else is discarded.
// Every data frame is acked, with the SACK bitmap while frames are held.
func (c *Conn) handleData(f *Frame) {
	s := c.sess[f.Epoch]
	if s == nil {
		c.stats.Strays++
		return
	}
	if f.Total != s.total {
		c.stats.Strays++
		return
	}
	if f.SrcID != 0 || f.SpanID != 0 {
		s.srcID, s.spanID = f.SrcID, f.SpanID
	}
	switch {
	case s.complete || f.Seq < s.next || f.Seq > s.next && s.sack>>(f.Seq-s.next-1)&1 != 0:
		c.stats.DupDiscards++
		if c.tr != nil {
			c.tr.Count("net.frames.dup-discard", 1)
		}
	case f.Seq > s.next+sackSpan:
		c.stats.OOODiscards++
	case f.Seq > s.next:
		if s.held == nil {
			s.held = make(map[uint64][]byte)
		}
		s.held[f.Seq] = f.Payload
		s.sack |= 1 << (f.Seq - s.next - 1)
		c.stats.Held++
	default:
		for p := f.Payload; ; {
			s.buf = append(s.buf, p...)
			more := s.sack&1 != 0
			s.sack >>= 1
			s.next++
			if !more {
				break
			}
			p = s.held[s.next]
			delete(s.held, s.next)
		}
		if s.next == s.total {
			s.complete = true
		}
	}
	var sack []byte
	if s.sack != 0 {
		sack = binary.LittleEndian.AppendUint64(nil, s.sack)
	}
	c.pipe.Rev.Send(EncodeFrame(FrameAck, f.Epoch, s.next, s.total, sack))
}

// connect performs the handshake: Hello until a HelloAck arrives, with
// capped backoff. It returns the receiver's next expected frame — the
// resume point.
func (c *Conn) connect(epoch, total, spanID uint64, st *TransferStats) (uint64, error) {
	span := c.tr.Begin(trace.TrackNet, "net.connect", trace.I("epoch", int64(epoch)))
	rto := c.cfg.RTO
	for attempt := 0; ; attempt++ {
		hello := EncodeFrameCtx(FrameHello, epoch, 0, total, c.src, spanID, nil)
		st.WireBytes += int64(len(hello))
		c.pipe.Fwd.Send(hello)
		res := c.pump(epoch)
		if res.haveHello {
			c.stats.Connects++
			if c.tr != nil {
				c.tr.Count("net.connects", 1)
			}
			span.End(trace.I("resume-seq", int64(res.helloNext)))
			return res.helloNext, nil
		}
		if attempt >= c.cfg.MaxRetries {
			span.End(trace.S("err", "retries exhausted"))
			return 0, fmt.Errorf("%w: epoch %d: no hello-ack after %d attempts", ErrRetriesExhausted, epoch, attempt+1)
		}
		c.backoff(&rto, st)
	}
}

func (c *Conn) backoff(rto *time.Duration, st *TransferStats) {
	st.Backoffs++
	c.stats.Backoffs++
	if c.tr != nil {
		c.tr.Instant(trace.TrackNet, "net.backoff", trace.D("rto", *rto))
		c.tr.Count("net.backoffs", 1)
	}
	c.clk.Advance(*rto)
	if next := *rto * 2; next < c.cfg.RTOCap {
		*rto = next
	} else {
		*rto = c.cfg.RTOCap
	}
}

// sentMask is the scoreboard bits of frames base+1 .. high-1.
func sentMask(base, high uint64) uint64 {
	if high <= base+1 {
		return 0
	}
	if n := high - base - 1; n < sackSpan {
		return 1<<n - 1
	}
	return ^uint64(0)
}

// Transfer ships payload to the receiver side under the given epoch key and
// returns once every frame is acked. On ErrRetriesExhausted the receiver
// session keeps its progress: a later Transfer with the same epoch and
// payload resumes from the first unacked frame. A completed transfer's
// payload is collected with Take(epoch).
func (c *Conn) Transfer(epoch uint64, payload []byte) (TransferStats, error) {
	var st TransferStats
	sw := clock.StartStopwatch(c.clk)
	total := uint64((len(payload) + c.cfg.FrameData - 1) / c.cfg.FrameData)
	st.Frames = total
	span := c.tr.Begin(trace.TrackNet, "net.transfer",
		trace.I("epoch", int64(epoch)), trace.I("bytes", int64(len(payload))), trace.I("frames", int64(total)))

	base, err := c.connect(epoch, total, span.ID(), &st)
	if err != nil {
		span.End(trace.S("err", err.Error()))
		return st, err
	}
	if base > total {
		// A session from a different (longer) payload under this epoch key;
		// the Hello reset path replaces it, so this is unreachable unless
		// the caller broke the epoch contract mid-flight.
		span.End(trace.S("err", "resume past end"))
		return st, fmt.Errorf("%w: epoch %d: receiver ahead of payload (%d > %d frames)", ErrFrame, epoch, base, total)
	}
	st.ResumedFrom = base
	if base > 0 {
		c.stats.Resumes++
		if c.tr != nil {
			c.tr.Instant(trace.TrackNet, "net.resume",
				trace.I("epoch", int64(epoch)), trace.I("from", int64(base)), trace.I("total", int64(total)))
			c.tr.Count("net.resumes", 1)
		}
		c.fl.Record(int64(c.clk.Now()), flight.EvNetResume, int64(epoch), int64(base), int64(total), "")
	}

	// The scoreboard: bit i of sacked means frame base+1+i is held by the
	// receiver; frames [base, resendTo) that are not are resent next round.
	rto := c.cfg.RTO
	misses := 0
	high := base // frames [0, high) have been sent at least once this call
	resendTo := base
	var sacked uint64
	for base < total {
		for seq := base; seq < total && seq-base < uint64(c.cfg.Window); seq++ {
			retx := seq < high
			if retx && (seq >= resendTo || seq > base && sacked>>(seq-base-1)&1 != 0) {
				continue
			}
			lo := int(seq) * c.cfg.FrameData
			hi := min(lo+c.cfg.FrameData, len(payload))
			frame := EncodeFrameCtx(FrameData, epoch, seq, total, c.src, span.ID(), payload[lo:hi])
			if retx {
				st.Retransmits++
				c.stats.Retransmits++
				if c.tr != nil {
					c.tr.Instant(trace.TrackNet, "net.retx", trace.I("seq", int64(seq)))
					c.tr.Count("net.frames.retx", 1)
				}
			} else {
				high = seq + 1
			}
			st.FramesSent++
			c.stats.FramesSent++
			st.WireBytes += int64(len(frame))
			if c.tr != nil {
				c.tr.Count("net.frames.sent", 1)
			}
			c.pipe.Fwd.Send(frame)
		}
		res := c.pump(epoch)
		advanced := res.ackNext > base
		if advanced {
			sacked >>= res.ackNext - base
			base = res.ackNext
			rto = c.cfg.RTO
			misses = 0
		}
		// Only a frame this call has sent, past base and short of high (so
		// never one at or past total), may be SACKed.
		fresh := res.sack >> (base - res.ackNext) & sentMask(base, high) &^ sacked
		sacked |= fresh
		if advanced || fresh != 0 {
			// Fast retransmit: the pump drained the wire, so every hole
			// below the highest SACKed frame is lost.
			resendTo = base + uint64(bits.Len64(sacked))
			continue
		}
		misses++
		if misses > c.cfg.MaxRetries {
			span.End(trace.S("err", "retries exhausted"), trace.I("acked", int64(base)))
			return st, fmt.Errorf("%w: epoch %d: %d/%d frames acked, %d silent rounds",
				ErrRetriesExhausted, epoch, base, total, misses)
		}
		c.backoff(&rto, &st)
		// Reneging: the receiver may have dropped what it held, so forget
		// every SACK and resend the first unacked frame; its ack rebuilds
		// the scoreboard.
		sacked = 0
		resendTo = base + 1
	}

	st.Elapsed = sw.Elapsed()
	c.stats.Transfers++
	if c.tr != nil {
		c.tr.Count("net.transfers", 1)
		c.tr.Observe("net.transfer.ns", int64(st.Elapsed))
	}
	endArgs := []trace.Arg{
		trace.I("sent", st.FramesSent), trace.I("retx", st.Retransmits), trace.I("backoffs", st.Backoffs),
	}
	if c.src != 0 && span.ID() != 0 {
		// Hand the causality to the receiver: the merged fleet timeline
		// draws an arrow from this span to whatever event the far side
		// stamps with the matching flow id (trace.FlowID of the
		// trace-context every frame of this transfer carried).
		endArgs = append(endArgs, trace.I(trace.FlowOut, int64(trace.FlowID(c.src, span.ID()))))
	}
	span.End(endArgs...)
	return st, nil
}

// Package flight is the machine's black box: a bounded ring of typed
// events fed from the same hook sites as the tracer. The object store
// persists it in the commit records it already writes — the whole ring in
// every checkpoint index, the events since the last accepted commit in every
// WAL frame — so the recent past survives a power cut. It is commit
// metadata, not an object: it neither replicates nor takes an OID. After a
// crash the recovered store holds the ring as of the commit it landed on;
// the fault device separately preserves the cut/torn events themselves
// (which by definition can never make it into the commit they
// interrupted), and the two together form the forensic timeline.
//
// Events carry the virtual-clock timestamp, a kind, three kind-specific
// integer arguments, and a short detail string. Everything recorded must
// be deterministic — timestamps are virtual, and hook sites sit on
// single-threaded coordinator paths (checkpoint planning, commit,
// replication) rather than on application threads — so a run records the
// same ring byte-for-byte every time, keeping the store images of
// repeated runs identical.
package flight

import (
	"fmt"
	"strings"

	"aurora/internal/rec"
)

// Kind identifies an event type.
type Kind uint8

// Event kinds. New kinds append; decode tolerates unknown kinds so old
// tools can read new rings.
const (
	EvCheckpointBegin Kind = 1 + iota // A=group OID, B=epoch about to commit, C=kind (0 full, 1 incremental)
	EvCheckpointEnd                   // A=group OID, B=epoch, C=bytes written
	EvFlushJob                        // A=group OID, B=object OID, C=pages planned
	EvDevWrite                        // A=offset, B=bytes, C=ordering barrier token
	EvDevSettle                       // A=epoch made durable
	EvPowerCut                        // A=submit index, B=offset, C=bytes (detail has seed/torn)
	EvTornWrite                       // A=offset, B=bytes landed, C=bytes intended
	EvRollback                        // A=offset, B=bytes discarded
	EvReplShip                        // A=epoch, B=bytes, C=delta base epoch
	EvReplResume                      // A=resumed-from epoch, B=ships pending
	EvRestore                         // A=group OID, B=epoch restored, C=lazy (0/1)
	EvRecv                            // A=group OID, B=epoch received, C=bytes
	EvAuditViolation                  // A=rule index; detail names the rule and finding
	EvNetResume                       // A=peer high-water mark resumed from
	EvWALAppend                       // A=base epoch, B=frame seq (recorded pre-encode, C unused)
	EvWALFold                         // A=epoch the fold commits, B=frames folded
	EvWALGC                           // A=bytes reclaimed, B=generation retired
	_                                 // reserved, so the kinds below keep their numbers
	_                                 // reserved, so the kinds below keep their numbers
	EvSLOBreach                       // A=observed value, B=bound, C=virtual µs; detail names the rule
	EvCheckpointFail                  // A=group OID, B=the ordinal EvCheckpointBegin announced, C=kind; detail has the error
)

// String names the kind for timelines.
func (k Kind) String() string {
	switch k {
	case EvCheckpointBegin:
		return "ckpt.begin"
	case EvCheckpointEnd:
		return "ckpt.end"
	case EvFlushJob:
		return "flush.job"
	case EvDevWrite:
		return "dev.write"
	case EvDevSettle:
		return "dev.settle"
	case EvPowerCut:
		return "power.cut"
	case EvTornWrite:
		return "torn.write"
	case EvRollback:
		return "rollback"
	case EvReplShip:
		return "repl.ship"
	case EvReplResume:
		return "repl.resume"
	case EvRestore:
		return "restore"
	case EvRecv:
		return "recv"
	case EvAuditViolation:
		return "audit.violation"
	case EvNetResume:
		return "net.resume"
	case EvWALAppend:
		return "wal.append"
	case EvWALFold:
		return "wal.fold"
	case EvWALGC:
		return "wal.gc"
	case EvSLOBreach:
		return "slo.breach"
	case EvCheckpointFail:
		return "ckpt.fail"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one flight-recorder entry.
type Event struct {
	At      int64 // virtual-clock nanoseconds
	Kind    Kind
	A, B, C int64  // kind-specific arguments
	Detail  string // short free-form context, capped at MaxDetail
}

// String renders one timeline line.
func (e Event) String() string {
	s := fmt.Sprintf("%12dns %-15s a=%d b=%d c=%d", e.At, e.Kind, e.A, e.B, e.C)
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// DefaultCap is the ring size used when a Recorder is built with
// capacity <= 0. Big enough to span several checkpoints of activity,
// small enough that the serialized ring stays an inline store record.
const DefaultCap = 256

// MaxDetail bounds the detail string stored per event.
const MaxDetail = 96

// Recorder is a bounded ring of events. All methods are safe on a nil
// receiver (they drop writes and return zero values), mirroring the
// nil-tracer convention, so hook sites never need guards.
type Recorder struct {
	cap  int
	seq  uint64 // events ever recorded, including overwritten ones
	ring []Event
	head int // next slot to write once the ring is full
}

// NewRecorder returns a ring holding the last capacity events
// (DefaultCap if capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	return &Recorder{cap: capacity}
}

// Record appends an event, evicting the oldest once the ring is full.
func (r *Recorder) Record(at int64, kind Kind, a, b, c int64, detail string) {
	if r == nil {
		return
	}
	if len(detail) > MaxDetail {
		detail = detail[:MaxDetail]
	}
	ev := Event{At: at, Kind: kind, A: a, B: b, C: c, Detail: detail}
	r.seq++
	if len(r.ring) < r.cap {
		r.ring = append(r.ring, ev)
		return
	}
	r.ring[r.head] = ev
	r.head = (r.head + 1) % r.cap
}

// Seq returns the total number of events ever recorded (not just those
// still resident in the ring).
func (r *Recorder) Seq() uint64 {
	if r == nil {
		return 0
	}
	return r.seq
}

// Events returns the resident events oldest-first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.ring))
	out = append(out, r.ring[r.head:]...)
	out = append(out, r.ring[:r.head]...)
	return out
}

// Tail returns the newest n events oldest-first (all of them if n
// exceeds the residency).
func (r *Recorder) Tail(n int) []Event {
	evs := r.Events()
	if n < len(evs) {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// Since serializes into a sealed record the resident events recorded after
// sequence number seq — the whole ring when it has wrapped past seq, or for
// seq 0 — and returns the recorder's sequence number: the seq to pass next
// time, so that consecutive tails tile the event stream. Decode reads it.
func (r *Recorder) Since(seq uint64) ([]byte, uint64) {
	if r == nil {
		return nil, 0
	}
	var e rec.Encoder
	n := len(r.ring)
	if d := r.seq - seq; d < uint64(n) {
		n = int(d)
	}
	e.Grow(16 + n*eventWire + 4) // exact for a ring without details
	e.U32(snapMagic)
	e.U64(r.seq)
	e.U32(uint32(n))
	for i := len(r.ring) - n; i < len(r.ring); i++ {
		ev := &r.ring[(r.head+i)%len(r.ring)]
		e.I64(ev.At)
		e.U8(uint8(ev.Kind))
		e.I64(ev.A)
		e.I64(ev.B)
		e.I64(ev.C)
		e.Str(ev.Detail)
	}
	return e.Seal(), r.seq
}

const snapMagic = 0x464C5431 // "FLT1"

// eventWire is the minimum serialized size of one event: timestamp,
// kind, three args, and an empty detail's length prefix.
const eventWire = 8 + 1 + 3*8 + 4

// Decode parses a serialized ring. It returns the events oldest-first
// and the recorder's total sequence number at snapshot time. The count is
// validated against the record size, so a corrupt one can neither size an
// allocation nor drive a loop.
func Decode(b []byte) ([]Event, uint64, error) {
	d, err := rec.NewDecoder(b)
	if err != nil {
		return nil, 0, fmt.Errorf("flight: %w", err)
	}
	if m := d.U32(); m != snapMagic {
		return nil, 0, fmt.Errorf("flight: %w: bad magic %#x", rec.ErrCorrupt, m)
	}
	seq, n := d.U64(), int(d.U32())
	if d.Err() != nil {
		return nil, 0, fmt.Errorf("flight: %w", d.Err())
	}
	if n < 0 || n > d.Remaining()/eventWire {
		return nil, 0, fmt.Errorf("flight: %w: event count %d exceeds record", rec.ErrCorrupt, n)
	}
	evs := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		ev := Event{At: d.I64(), Kind: Kind(d.U8()), A: d.I64(), B: d.I64(), C: d.I64(), Detail: d.Str()}
		if d.Err() != nil {
			return nil, 0, fmt.Errorf("flight: event %d: %w", i, d.Err())
		}
		evs = append(evs, ev)
	}
	if d.Remaining() != 0 {
		return nil, 0, fmt.Errorf("flight: %w: %d trailing bytes", rec.ErrCorrupt, d.Remaining())
	}
	return evs, seq, nil
}

// Format renders events as an indented timeline block, one line each.
func Format(evs []Event) string {
	if len(evs) == 0 {
		return "  (no flight events)\n"
	}
	var sb strings.Builder
	for _, ev := range evs {
		sb.WriteString("  ")
		sb.WriteString(ev.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

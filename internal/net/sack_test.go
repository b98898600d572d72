package net

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/bits"
	"testing"
	"time"

	"aurora/internal/clock"
)

// TestTransferSingleFaultCost puts one fault at each data-frame index of a
// 1 MiB default transfer and bounds what repairing it costs. A lost frame is
// resent once: at once when a later frame is SACKed, after one timeout only
// when it was the last. A late or doubled frame is held or discarded and
// costs nothing. A lost ack costs at most the one frame it acknowledged.
func TestTransferSingleFaultCost(t *testing.T) {
	payload := testPayload(1 << 20)
	c, _ := newTestConn(Plan{}, Plan{}, Config{})
	mustTransfer(t, c, 1, payload)
	fwd, rev := c.Pipe().Fwd.Xmits(), c.Pipe().Rev.Xmits()

	check := func(dir string, idx int64, kind FaultKind, maxRetx, maxBackoffs int64) {
		t.Helper()
		plan := Plan{Faults: []Fault{{Xmit: idx, Kind: kind}}}
		fwd, rev := plan, Plan{}
		if dir == "rev" {
			fwd, rev = rev, fwd
		}
		c, _ := newTestConn(fwd, rev, Config{})
		st := mustTransfer(t, c, 1, payload)
		if st.Retransmits > maxRetx || st.Backoffs > maxBackoffs {
			t.Errorf("%s %v at xmit %d: %d retransmits, %d backoffs; want at most %d and %d",
				dir, kind, idx, st.Retransmits, st.Backoffs, maxRetx, maxBackoffs)
		}
	}
	// Forward transmission 0 is the Hello; the data frames follow it.
	for idx := int64(1); idx < fwd; idx++ {
		tail := int64(0)
		if idx == fwd-1 {
			tail = 1
		}
		check("fwd", idx, FaultDrop, 1, tail)
		check("fwd", idx, FaultCorrupt, 1, tail)
		check("fwd", idx, FaultReorder, 0, 0)
		check("fwd", idx, FaultDup, 0, 0)
	}
	for idx := int64(0); idx < rev; idx++ {
		check("rev", idx, FaultDrop, 1, 1)
	}
}

// hookClock is a virtual clock that calls hook after every advance: a way
// to act on a Conn from inside its own Transfer.
type hookClock struct {
	*clock.Virtual
	hook func()
}

func (h *hookClock) Advance(d time.Duration) {
	h.Virtual.Advance(d)
	h.hook()
}

// hookedTransfer ships payload as epoch 1 over a conn whose clock calls
// hook(conn) after every advance.
func hookedTransfer(fwd Plan, payload []byte, hook func(c *Conn)) (TransferStats, *Conn, error) {
	clk := &hookClock{Virtual: clock.NewVirtual()}
	pipe := NewPipe(clk, Params{Latency: 15 * time.Microsecond, PerByte: time.Nanosecond}, fwd, Plan{})
	c := NewConn(pipe, clk, Config{}, nil)
	clk.hook = func() { hook(c) }
	st, err := c.Transfer(1, payload)
	return st, c, err
}

// TestForgedSACKsShipEveryFrame slips a forged ack onto the reverse link at
// every clock advance: the receiver's true cumulative next with every SACK
// bit set, claiming 64 frames it never saw, past the end of the transfer
// included. The sender must still ship every frame, complete on the
// cumulative ack alone, and give up on a dead wire.
func TestForgedSACKsShipEveryFrame(t *testing.T) {
	payload := testPayload(1 << 20)
	lie := binary.LittleEndian.AppendUint64(nil, ^uint64(0))
	forge := func(c *Conn) {
		if s := c.sess[1]; s != nil {
			c.pipe.Rev.enqueue(EncodeFrame(FrameAck, 1, s.next, s.total, lie), c.clk.Now())
		}
	}
	for _, fwd := range []Plan{
		{},
		{Faults: []Fault{{Xmit: 5, Kind: FaultDrop}, {Xmit: 20, Kind: FaultDrop}, {Xmit: 32, Kind: FaultDrop}}},
		{Seed: 9, DropProb: 0.1, ReorderProb: 0.05, CorruptProb: 0.05},
	} {
		st, c, err := hookedTransfer(fwd, payload, forge)
		if err != nil {
			t.Fatalf("%v: %v (stats %+v)", fwd, err, st)
		}
		if frames := int64((len(payload) + c.cfg.FrameData - 1) / c.cfg.FrameData); st.FramesSent < frames {
			t.Errorf("%v: shipped %d frames of %d", fwd, st.FramesSent, frames)
		}
		if got, ok := c.Take(1); !ok || !bytes.Equal(got, payload) {
			t.Fatalf("%v: payload mismatch", fwd)
		}
	}
	// The wire dies after the handshake: forged SACKs must not count as
	// progress forever.
	st, _, err := hookedTransfer(Plan{Faults: []Fault{{Xmit: 1, Kind: FaultPartition, For: time.Hour}}}, payload, forge)
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("dead wire under forged SACKs: err = %v (stats %+v)", err, st)
	}

	// One forged ack, as the first data frame leaves, SACKs frames the
	// sender has not sent yet. The sender ignores those bits, so frames 20
	// and 25, lost later, are repaired exactly as without the forgery.
	drops := Plan{Faults: []Fault{{Xmit: 21, Kind: FaultDrop}, {Xmit: 26, Kind: FaultDrop}}}
	type outcome struct {
		retx, backoffs int64
		clock          time.Duration
	}
	run := func(hook func(c *Conn)) outcome {
		st, c, err := hookedTransfer(drops, payload, hook)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{st.Retransmits, st.Backoffs, c.clk.Now()}
	}
	honest := run(func(*Conn) {})
	forged := false
	once := run(func(c *Conn) {
		if !forged && c.stats.FramesSent == 1 {
			forged = true
			forge(c)
		}
	})
	if !forged || once != honest {
		t.Fatalf("one early forged ack changed the repair: %+v, honest %+v (forged=%v)", once, honest, forged)
	}
}

// TestRenegingReceiverConverges: a receiver that drops every frame it held
// (RFC 2018 §8 lets it) after the sender has seen them SACKed still gets
// the exact payload.
func TestRenegingReceiverConverges(t *testing.T) {
	payload := testPayload(1 << 20)
	for _, fwd := range []Plan{
		{Faults: []Fault{{Xmit: 3, Kind: FaultDrop}, {Xmit: 20, Kind: FaultDrop}}},
		{Seed: 5, DropProb: 0.1, ReorderProb: 0.1},
	} {
		reneged := 0
		st, c, err := hookedTransfer(fwd, payload, func(c *Conn) {
			if s := c.sess[1]; s != nil && s.sack != 0 && c.stats.AcksSeen%3 == 2 {
				s.sack = 0
				reneged++
			}
		})
		if err != nil {
			t.Fatalf("%v: %v (stats %+v)", fwd, err, st)
		}
		if got, ok := c.Take(1); !ok || !bytes.Equal(got, payload) {
			t.Fatalf("%v: payload mismatch", fwd)
		}
		if reneged == 0 {
			t.Errorf("%v: the receiver never dropped a held frame", fwd)
		}
	}
}

// TestSessionHoldsAtMostSackSpan: a receiver holds at most sackSpan frames
// past a gap, acks them in its bitmap, drains them when the gap fills, and
// forgets them on Abort, on completion and on a resetting Hello. Frames are
// one byte, so the Conn's FrameData is too.
func TestSessionHoldsAtMostSackSpan(t *testing.T) {
	c, _ := newTestConn(Plan{}, Plan{}, Config{FrameData: 1})
	const total = 200
	hello := func(total uint64) { c.handleHello(&Frame{Type: FrameHello, Epoch: 1, Total: total}) }
	data := func(seq uint64) {
		c.handleData(&Frame{Type: FrameData, Epoch: 1, Seq: seq, Total: total, Payload: []byte{byte(seq)}})
		s := c.sess[1]
		if placed := uint64(len(s.buf)); placed > s.next+1+sackSpan || s.sack != 0 && s.next+uint64(bits.Len64(s.sack)) >= placed {
			t.Fatalf("after seq %d: %d bytes placed past frame %d, bitmap %#x", seq, placed, s.next, s.sack)
		}
	}
	lastAck := func() *Frame {
		var last []byte
		for raw, ok := c.pipe.Rev.Recv(); ok; raw, ok = c.pipe.Rev.Recv() {
			last = raw
		}
		f, err := DecodeFrame(last)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	hello(total)
	for seq := uint64(1); seq < total; seq++ {
		data(seq)
	}
	// Frames 1..sackSpan are held; the other total-1-sackSpan were discarded.
	if s := c.sess[1]; bits.OnesCount64(s.sack) != sackSpan || len(s.buf) != sackSpan+1 {
		t.Fatalf("held %d frames, placed %d bytes; want %d and %d", bits.OnesCount64(s.sack), len(s.buf), sackSpan, sackSpan+1)
	}
	if f := lastAck(); f.Seq != 0 || !bytes.Equal(f.Payload, binary.LittleEndian.AppendUint64(nil, ^uint64(0))) {
		t.Fatalf("ack while holding 64 frames: next %d, payload %x", f.Seq, f.Payload)
	}
	data(0) // fills the gap: frames 0..64 drain at once
	if s := c.sess[1]; s.next != sackSpan+1 || s.sack != 0 {
		t.Fatalf("after the gap filled: next %d, bitmap %#x", s.next, s.sack)
	}
	if f := lastAck(); f.Seq != sackSpan+1 || len(f.Payload) != 0 {
		t.Fatalf("ack after the drain: next %d, payload %x (want no SACK bytes)", f.Seq, f.Payload)
	}

	data(sackSpan + 3)
	if !c.Abort(1) || c.sess[1] != nil {
		t.Fatal("Abort kept the session and its held frame")
	}

	hello(total)
	data(7)
	hello(total + 1) // a different payload under the same key resets the session
	if s := c.sess[1]; s.next != 0 || s.sack != 0 || len(s.buf) != 0 {
		t.Fatalf("after a resetting Hello: next %d, bitmap %#x, %d bytes placed", s.next, s.sack, len(s.buf))
	}

	hello(total)
	for seq := uint64(total - 1); seq > 0; seq-- {
		data(seq)
	}
	for seq := uint64(0); seq < total; seq++ {
		data(seq)
	}
	want := make([]byte, total)
	for i := range want {
		want[i] = byte(i)
	}
	if got, ok := c.Take(1); !ok || !bytes.Equal(got, want) {
		t.Fatalf("Take after out-of-order delivery: ok=%v payload %x", ok, got)
	}
	if c.sess[1] != nil {
		t.Fatal("Take kept the session")
	}
}

package net

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"aurora/internal/clock"
	"aurora/internal/trace"
)

func testPayload(n int) []byte {
	rng := rand.New(rand.NewSource(int64(n)))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func newTestConn(fwd, rev Plan, cfg Config) (*Conn, *clock.Virtual) {
	clk := clock.NewVirtual()
	pipe := NewPipe(clk, Params{Latency: 15 * time.Microsecond, PerByte: time.Nanosecond}, fwd, rev)
	return NewConn(pipe, clk, cfg, nil), clk
}

func mustTransfer(t *testing.T, c *Conn, epoch uint64, payload []byte) TransferStats {
	t.Helper()
	st, err := c.Transfer(epoch, payload)
	if err != nil {
		t.Fatalf("Transfer(%d): %v", epoch, err)
	}
	got, ok := c.Take(epoch)
	if !ok {
		t.Fatalf("Take(%d): transfer not complete", epoch)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Take(%d): payload mismatch (%d vs %d bytes)", epoch, len(got), len(payload))
	}
	return st
}

func TestFrameRoundTrip(t *testing.T) {
	raw := EncodeFrame(FrameData, 7, 3, 9, []byte("hello"))
	f, err := DecodeFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameData || f.Epoch != 7 || f.Seq != 3 || f.Total != 9 || string(f.Payload) != "hello" {
		t.Fatalf("frame = %+v", f)
	}
}

func TestFrameDecodeRejects(t *testing.T) {
	good := EncodeFrame(FrameData, 1, 0, 1, []byte("x"))
	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"short", good[:3]},
		{"truncated", good[:len(good)-5]},
		{"flipped-bit", func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)/2] ^= 0x01
			return b
		}()},
		{"trailing", append(append([]byte(nil), good...), 0)},
	}
	for _, tc := range cases {
		if f, err := DecodeFrame(tc.b); err == nil {
			t.Errorf("%s: decoded to %+v, want error", tc.name, f)
		}
	}
	// Structural rejects need a valid CRC around bad content.
	if _, err := DecodeFrame(EncodeFrame(FrameType(0), 1, 0, 1, nil)); !errors.Is(err, ErrFrame) {
		t.Errorf("type 0: err = %v", err)
	}
	if _, err := DecodeFrame(EncodeFrame(FrameType(200), 1, 0, 1, nil)); !errors.Is(err, ErrFrame) {
		t.Errorf("type 200: err = %v", err)
	}
	if _, err := DecodeFrame(EncodeFrame(FrameData, 1, 5, 5, nil)); !errors.Is(err, ErrFrame) {
		t.Errorf("seq==total: err = %v", err)
	}
	if _, err := DecodeFrame(EncodeFrame(FrameAck, 1, 0, MaxTransferFrames+1, nil)); !errors.Is(err, ErrFrame) {
		t.Errorf("huge total: err = %v", err)
	}
	big := EncodeFrame(FrameData, 1, 0, 1, make([]byte, MaxFramePayload+1))
	if _, err := DecodeFrame(big); !errors.Is(err, ErrFrame) {
		t.Errorf("oversized payload: err = %v", err)
	}
	// Only a data frame carries a chunk; an ack carries nothing or exactly
	// the 8-byte SACK bitmap.
	for _, tc := range []struct {
		t FrameType
		n int
	}{{FrameHello, 1}, {FrameHello, sackBytes}, {FrameHelloAck, 1}, {FrameHelloAck, sackBytes},
		{FrameAck, 1}, {FrameAck, sackBytes - 1}, {FrameAck, sackBytes + 1}, {FrameAck, 64}} {
		if _, err := DecodeFrame(EncodeFrame(tc.t, 1, 0, 1, make([]byte, tc.n))); !errors.Is(err, ErrFrame) {
			t.Errorf("type %d with a %d-byte payload: err = %v", tc.t, tc.n, err)
		}
	}
	if _, err := DecodeFrame(EncodeFrame(FrameAck, 1, 0, 1, make([]byte, sackBytes))); err != nil {
		t.Errorf("ack with a SACK bitmap: %v", err)
	}
}

func TestTransferCleanPipe(t *testing.T) {
	c, clk := newTestConn(Plan{}, Plan{}, Config{})
	payload := testPayload(200 << 10) // 7 frames at 32 KiB
	st := mustTransfer(t, c, 1, payload)
	if st.FramesSent != 7 || st.Retransmits != 0 || st.Backoffs != 0 {
		t.Fatalf("clean transfer stats = %+v", st)
	}
	if st.Elapsed <= 0 || clk.Now() == 0 {
		t.Fatal("transfer consumed no virtual time")
	}
	if _, ok := c.Take(1); ok {
		t.Fatal("second Take succeeded")
	}
}

// TestCleanWireTransferPinned pins what a clean wire carries: the final
// clock, both directions' transmission counts, the forward wire bytes and a
// SHA-256 over every reverse-link frame. An ack from a receiver that holds
// nothing out of order must stay byte-identical, so loss recovery may
// change how a lossy wire is repaired but never what a clean one sees.
func TestCleanWireTransferPinned(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		size int
		want string
	}{
		{"1MiB-default", Config{}, 1 << 20,
			"clock=1.140484ms fwd=33 rev=33 wire=1050325 rev-sha=cbf69de5cf22e09e681be83da33f92d73ef146be5ee845db729a022a49c5c21a"},
		{"96KiB-window4-8KiB", Config{Window: 4, FrameData: 8 << 10}, 96 << 10,
			"clock=219.205µs fwd=13 rev=13 wire=98993 rev-sha=edb96709eb2d45ef18b0e10f21b512e78b3c8cbc1f3c2db39f287f61e04c10a1"},
	}
	for _, tc := range cases {
		c, clk := newTestConn(Plan{}, Plan{}, tc.cfg)
		rev := sha256.New()
		c.Pipe().Rev.tap = func(frame []byte) {
			binary.Write(rev, binary.LittleEndian, uint32(len(frame)))
			rev.Write(frame)
		}
		st := mustTransfer(t, c, 1, testPayload(tc.size))
		got := fmt.Sprintf("clock=%v fwd=%d rev=%d wire=%d rev-sha=%x",
			clk.Now(), c.Pipe().Fwd.Xmits(), c.Pipe().Rev.Xmits(), st.WireBytes, rev.Sum(nil))
		if got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

func TestTransferEmptyPayload(t *testing.T) {
	c, _ := newTestConn(Plan{}, Plan{}, Config{})
	st := mustTransfer(t, c, 1, nil)
	if st.FramesSent != 0 {
		t.Fatalf("empty transfer stats = %+v", st)
	}
}

func TestTransferSingleByte(t *testing.T) {
	c, _ := newTestConn(Plan{}, Plan{}, Config{})
	mustTransfer(t, c, 1, []byte{0x42})
}

func TestTransferManyEpochs(t *testing.T) {
	c, clk := newTestConn(Plan{}, Plan{}, Config{})
	c.tr = trace.New(clk)
	for e := uint64(1); e <= 5; e++ {
		mustTransfer(t, c, e, testPayload(int(e)*10000))
	}
	if n := c.tr.CounterValue("net.transfers"); n != 5 {
		t.Fatalf("net.transfers = %d, want 5", n)
	}
}

func TestTransferLossyConverges(t *testing.T) {
	c, _ := newTestConn(
		Plan{Seed: 7, DropProb: 0.05, DupProb: 0.03, ReorderProb: 0.03, CorruptProb: 0.03},
		Plan{Seed: 8, DropProb: 0.05},
		Config{})
	payload := testPayload(300 << 10)
	st := mustTransfer(t, c, 1, payload)
	if st.Retransmits == 0 && st.Backoffs == 0 {
		t.Fatalf("lossy plan caused no recovery activity: %+v", st)
	}
}

func TestTransferHeavyLossConverges(t *testing.T) {
	c, _ := newTestConn(
		Plan{Seed: 3, DropProb: 0.25, CorruptProb: 0.1},
		Plan{Seed: 4, DropProb: 0.25},
		Config{})
	mustTransfer(t, c, 1, testPayload(100<<10))
}

// TestTransferExhaustiveFaultSweep is the acceptance-criteria sweep at the
// protocol level: for every forward-link transmission index and every fault
// kind (plus an index-triggered partition), the transfer must converge with
// bounded retries and deliver a bit-identical payload.
func TestTransferExhaustiveFaultSweep(t *testing.T) {
	payload := testPayload(100 << 10)

	// Count forward transmissions of a clean run to bound the sweep space.
	c, _ := newTestConn(Plan{}, Plan{}, Config{})
	mustTransfer(t, c, 1, payload)
	xmits := c.Pipe().Fwd.Xmits()
	if xmits < 4 {
		t.Fatalf("clean run used only %d transmissions", xmits)
	}

	kinds := []FaultKind{FaultDrop, FaultDup, FaultReorder, FaultCorrupt}
	for idx := int64(0); idx < xmits; idx++ {
		for _, kind := range kinds {
			plan := Plan{Faults: []Fault{{Xmit: idx, Kind: kind}}}
			c, _ := newTestConn(plan, Plan{}, Config{})
			st, err := c.Transfer(1, payload)
			if err != nil {
				t.Fatalf("xmit %d %v: %v (stats %+v)", idx, kind, err, st)
			}
			got, ok := c.Take(1)
			if !ok || !bytes.Equal(got, payload) {
				t.Fatalf("xmit %d %v: payload mismatch", idx, kind)
			}
		}
		// Partition: the link dies at this index for longer than the RTO cap,
		// so recovery must ride the backoff path.
		plan := Plan{Faults: []Fault{{Xmit: idx, Kind: FaultPartition, For: 8 * time.Millisecond}}}
		c, _ := newTestConn(plan, Plan{}, Config{})
		st, err := c.Transfer(1, payload)
		if err != nil {
			t.Fatalf("xmit %d partition: %v (stats %+v)", idx, err, st)
		}
		got, ok := c.Take(1)
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("xmit %d partition: payload mismatch", idx)
		}
		if st.Backoffs == 0 {
			t.Fatalf("xmit %d partition: converged without backing off (stats %+v)", idx, st)
		}
	}
}

// TestTransferReverseFaultSweep injects every fault kind at every reverse
// (ack) link index: lost or corrupted acks must not corrupt the payload.
func TestTransferReverseFaultSweep(t *testing.T) {
	payload := testPayload(64 << 10)
	c, _ := newTestConn(Plan{}, Plan{}, Config{})
	mustTransfer(t, c, 1, payload)
	xmits := c.Pipe().Rev.Xmits()

	kinds := []FaultKind{FaultDrop, FaultDup, FaultReorder, FaultCorrupt}
	for idx := int64(0); idx < xmits; idx++ {
		for _, kind := range kinds {
			c, _ := newTestConn(Plan{}, Plan{Faults: []Fault{{Xmit: idx, Kind: kind}}}, Config{})
			st, err := c.Transfer(1, payload)
			if err != nil {
				t.Fatalf("rev xmit %d %v: %v (stats %+v)", idx, kind, err, st)
			}
			got, ok := c.Take(1)
			if !ok || !bytes.Equal(got, payload) {
				t.Fatalf("rev xmit %d %v: payload mismatch", idx, kind)
			}
		}
	}
}

func TestTransferRetriesExhausted(t *testing.T) {
	c, _ := newTestConn(Plan{DropProb: 1}, Plan{}, Config{MaxRetries: 3})
	_, err := c.Transfer(1, testPayload(1000))
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("dead link: err = %v", err)
	}
}

// TestTransferResume kills the pipe mid-transfer, confirms the error, heals
// it, and verifies the retry ships only the unacked tail.
func TestTransferResume(t *testing.T) {
	cfg := Config{Window: 4, FrameData: 4 << 10, MaxRetries: 3}
	payload := testPayload(256 << 10) // 64 frames

	c, clk := newTestConn(Plan{}, Plan{}, cfg)
	c.tr = trace.New(clk)
	// Kill the wire permanently at forward transmission 30 (past the
	// handshake and a couple of window rounds).
	c.Pipe().Fwd.plan.Faults = []Fault{{Xmit: 30, Kind: FaultPartition, For: time.Hour}}

	_, err := c.Transfer(1, payload)
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("cut transfer: err = %v", err)
	}
	next, total, ok := c.SessionProgress(1)
	if !ok || next == 0 || next >= total {
		t.Fatalf("session after cut: next=%d total=%d ok=%v", next, total, ok)
	}

	// Heal: clear the partition (simulates the link coming back) and retry.
	c.pipe.Fwd.parts = nil
	c.pipe.Fwd.plan.Faults = nil
	clk.Advance(time.Second)

	st, err := c.Transfer(1, payload)
	if err != nil {
		t.Fatalf("resumed transfer: %v", err)
	}
	// The healed wire is clean: the resume ships frames [next, total) once.
	if st.FramesSent != int64(total-next) || st.Retransmits != 0 {
		t.Fatalf("resume from frame %d of %d sent %d frames (%d retransmits), want %d",
			next, total, st.FramesSent, st.Retransmits, total-next)
	}
	got, ok := c.Take(1)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("resumed payload mismatch")
	}
	if n := c.tr.CounterValue("net.resumes"); n != 1 {
		t.Fatalf("net.resumes = %d, want 1", n)
	}
}

// TestTransferResumeAfterPartitionSweep cuts the wire at every forward
// transmission index; each cut transfer must either converge in place or
// fail cleanly and then resume to a bit-identical payload.
func TestTransferResumeAfterPartitionSweep(t *testing.T) {
	cfg := Config{Window: 4, FrameData: 8 << 10, MaxRetries: 2}
	payload := testPayload(96 << 10) // 12 frames

	c0, _ := newTestConn(Plan{}, Plan{}, cfg)
	mustTransfer(t, c0, 1, payload)
	xmits := c0.Pipe().Fwd.Xmits()

	for idx := int64(0); idx < xmits; idx++ {
		c, clk := newTestConn(Plan{Faults: []Fault{{Xmit: idx, Kind: FaultPartition, For: time.Hour}}}, Plan{}, cfg)
		_, err := c.Transfer(1, payload)
		if !errors.Is(err, ErrRetriesExhausted) {
			t.Fatalf("cut at %d: err = %v, want retries exhausted", idx, err)
		}
		c.pipe.Fwd.parts = nil
		c.pipe.Fwd.plan.Faults = nil
		clk.Advance(time.Second)
		if _, err := c.Transfer(1, payload); err != nil {
			t.Fatalf("cut at %d: resume failed: %v", idx, err)
		}
		got, ok := c.Take(1)
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("cut at %d: resumed payload mismatch", idx)
		}
	}
}

func TestTransferIdempotentReceiver(t *testing.T) {
	// Heavy duplication: every data frame is duplicated, yet each is applied
	// exactly once.
	c, _ := newTestConn(Plan{DupProb: 1}, Plan{}, Config{})
	payload := testPayload(64 << 10)
	mustTransfer(t, c, 1, payload)
	if st := c.Stats(); st.DupDiscards == 0 {
		t.Fatalf("dup plan triggered no discards: %+v", st)
	}
}

func TestTransferStatsAccounting(t *testing.T) {
	c, _ := newTestConn(Plan{Faults: []Fault{{Xmit: 3, Kind: FaultDrop}}}, Plan{}, Config{})
	payload := testPayload(200 << 10)
	st := mustTransfer(t, c, 1, payload)
	if st.Retransmits == 0 {
		t.Fatalf("dropped data frame but no retransmits: %+v", st)
	}
	if st.WireBytes <= int64(len(payload)) {
		t.Fatalf("WireBytes %d not accounting framing overhead over %d payload bytes", st.WireBytes, len(payload))
	}
	cs := c.Stats()
	if cs.FramesSent != st.FramesSent {
		t.Fatalf("conn stats %+v disagree with transfer stats %+v", cs, st)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Window != 16 || cfg.FrameData != 32<<10 || cfg.MaxRetries != 10 {
		t.Fatalf("defaults = %+v", cfg)
	}
	// The initial timeout is two one-way trips of a full frame plus 100 µs:
	// 2×(15 µs + 32 KiB × 1 ns) + 100 µs on newTestConn's pipe.
	c, _ := newTestConn(Plan{}, Plan{}, Config{})
	if want := 2*(15*time.Microsecond+(32<<10)*time.Nanosecond) + 100*time.Microsecond; c.rto != want || c.rto > rtoCap {
		t.Fatalf("initial rto = %v, want %v (cap %v)", c.rto, want, rtoCap)
	}
	over := Config{FrameData: MaxFramePayload * 2}.withDefaults()
	if over.FrameData != MaxFramePayload {
		t.Fatalf("FrameData not capped: %d", over.FrameData)
	}
}

func TestTransferDeterministicReplay(t *testing.T) {
	run := func() (TransferStats, ConnStats, time.Duration) {
		c, clk := newTestConn(
			Plan{Seed: 11, DropProb: 0.1, DupProb: 0.05, ReorderProb: 0.05, CorruptProb: 0.05},
			Plan{Seed: 12, DropProb: 0.1},
			Config{})
		st := mustTransfer(t, c, 1, testPayload(128<<10))
		return st, c.Stats(), clk.Now()
	}
	st1, cs1, t1 := run()
	st2, cs2, t2 := run()
	if st1 != st2 || cs1 != cs2 || t1 != t2 {
		t.Fatalf("replay diverged:\n%+v %+v %v\n%+v %+v %v", st1, cs1, t1, st2, cs2, t2)
	}
}

func TestPlanString(t *testing.T) {
	p := Plan{Seed: 3, DropProb: 0.5, Faults: []Fault{{Xmit: 7, Kind: FaultPartition, For: time.Millisecond}}}
	s := p.String()
	for _, want := range []string{"seed=3", "drop=0.5", "faults=1"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Fatalf("Plan.String() = %q missing %q", s, want)
		}
	}
	if FaultDrop.String() != "drop" || FaultPartition.String() != "partition" || FaultNone.String() != "none" {
		t.Fatal("FaultKind.String broken")
	}
}

func TestTransferLargeWindowSmallPayload(t *testing.T) {
	// Window larger than the whole transfer.
	c, _ := newTestConn(Plan{}, Plan{}, Config{Window: 64, FrameData: 1 << 10})
	mustTransfer(t, c, 1, testPayload(4<<10))
}

func TestHelloLossRecovered(t *testing.T) {
	// Drop the first two forward transmissions: both are Hellos; the
	// handshake must back off and retry.
	c, _ := newTestConn(Plan{Faults: []Fault{{Xmit: 0, Kind: FaultDrop}, {Xmit: 1, Kind: FaultDrop}}}, Plan{}, Config{})
	st := mustTransfer(t, c, 1, testPayload(8<<10))
	if st.Backoffs < 2 {
		t.Fatalf("dropped hellos but backoffs = %d", st.Backoffs)
	}
}

func TestHelloAckLossRecovered(t *testing.T) {
	c, _ := newTestConn(Plan{}, Plan{Faults: []Fault{{Xmit: 0, Kind: FaultDrop}}}, Config{})
	mustTransfer(t, c, 1, testPayload(8<<10))
}

// TestForgedHelloAllocatesAtMostThePresize: a session sizes its payload buffer
// from the Hello's frame count, which is untrusted. A Hello claiming
// MaxTransferFrames-1 frames must cost the receiver no more than maxPresize
// (and the session and the ack it sends, well under 16 KiB), and a real
// transfer's buffer must be sized once.
func TestForgedHelloAllocatesAtMostThePresize(t *testing.T) {
	c, _ := newTestConn(Plan{}, Plan{}, Config{})
	hello, err := DecodeFrame(EncodeFrame(FrameHello, 9, 0, MaxTransferFrames-1, nil))
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	c.handleHello(hello)
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got > maxPresize+16<<10 {
		t.Fatalf("a forged Hello allocated %d bytes, cap %d", got, maxPresize)
	}
	if got := cap(c.sess[9].buf); got != maxPresize {
		t.Fatalf("the forged session reserved %d bytes, want the cap %d", got, maxPresize)
	}

	payload := testPayload(6*32<<10 + 1) // 7 frames at 32 KiB, the last one byte
	if _, err := c.Transfer(1, payload); err != nil {
		t.Fatal(err)
	}
	if s := c.sess[1]; len(s.buf) != len(payload) || cap(s.buf) != 7*32<<10 {
		t.Fatalf("a 7-frame payload of %d bytes assembled into %d bytes of a %d-byte buffer", len(payload), len(s.buf), cap(s.buf))
	}
	if got, ok := c.Take(1); !ok || !bytes.Equal(got, payload) {
		t.Fatal("the assembled payload differs from the one sent")
	}
}

// TestConnReusesBuffersUnderFaults: 200 transfers of different sizes and
// contents through one Conn, under every fault kind on the forward link and
// loss on the acks. Every frame is encoded into a reused slot and every
// session assembles into the buffer the last Take handed out, so a stale
// byte of an earlier payload, or a slot rewritten while its frame was still
// in flight, would show in the payload taken.
func TestConnReusesBuffersUnderFaults(t *testing.T) {
	c, _ := newTestConn(
		Plan{Seed: 21, DropProb: 0.05, DupProb: 0.05, ReorderProb: 0.05, CorruptProb: 0.05},
		Plan{Seed: 22, DropProb: 0.05},
		Config{Window: 8, FrameData: 4 << 10})
	sackAcks := 0 // acks with a SACK bitmap: the receiver held frames past a gap
	c.Pipe().Rev.tap = func(frame []byte) {
		if f, err := DecodeFrame(frame); err == nil && f.Type == FrameAck && len(f.Payload) == sackBytes {
			sackAcks++
		}
	}
	rng := rand.New(rand.NewSource(23))
	reused := 0
	var retx int64
	var last []byte
	for epoch := uint64(1); epoch <= 200; epoch++ {
		payload := make([]byte, 1+rng.Intn(96<<10))
		rng.Read(payload)
		st, err := c.Transfer(epoch, payload)
		if err != nil {
			t.Fatalf("transfer %d: %v", epoch, err)
		}
		retx += st.Retransmits
		got, ok := c.Take(epoch)
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("transfer %d of %d bytes: took %d bytes that differ from those sent (ok=%v)", epoch, len(payload), len(got), ok)
		}
		if last != nil && &got[:1][0] == &last[:1][0] {
			reused++
		}
		last = got
	}
	if st := c.Stats(); retx == 0 || st.CorruptDrops == 0 || sackAcks == 0 || st.DupDiscards == 0 {
		t.Fatalf("the faults never bit: %d retransmits, %d SACK acks, %+v", retx, sackAcks, st)
	}
	if len(c.slots) != 8 || cap(c.spare) > maxPresize {
		t.Fatalf("the Conn holds %d frame slots and a %d-byte buffer", len(c.slots), cap(c.spare))
	}
	if reused < 150 {
		t.Fatalf("only %d of 200 transfers assembled into the buffer the one before took", reused)
	}
}

// TestDataFrameOfWrongLengthDropped: a frame lands at seq × FrameData, so
// every frame but the last must be exactly FrameData bytes, and the last 1
// to FrameData. Any other is dropped as corrupt and applies nothing.
func TestDataFrameOfWrongLengthDropped(t *testing.T) {
	c, _ := newTestConn(Plan{}, Plan{}, Config{FrameData: 4})
	c.handleHello(&Frame{Type: FrameHello, Epoch: 1, Total: 3})
	data := func(seq uint64, p string) {
		c.handleData(&Frame{Type: FrameData, Epoch: 1, Seq: seq, Total: 3, Payload: []byte(p)})
	}
	data(0, "abc")   // short, not the last
	data(1, "efghi") // long
	data(2, "")      // the last, empty
	if s, st := c.sess[1], c.Stats(); st.CorruptDrops != 3 || s.next != 0 || s.sack != 0 || len(s.buf) != 0 {
		t.Fatalf("after three mis-sized frames: %d dropped, next %d, bitmap %#x, %d bytes placed",
			st.CorruptDrops, s.next, s.sack, len(s.buf))
	}
	data(2, "ij")
	data(1, "efgh")
	data(0, "abcd")
	if got, ok := c.Take(1); !ok || string(got) != "abcdefghij" {
		t.Fatalf("Take = %q, %v", got, ok)
	}
}

// TestConnKeepsNoSeedSizedBuffer: after a 64 MiB transfer the Conn keeps no
// buffer for the next one, and after a 1 MiB transfer it keeps that one's.
func TestConnKeepsNoSeedSizedBuffer(t *testing.T) {
	c, _ := newTestConn(Plan{}, Plan{}, Config{})
	mustTransfer(t, c, 1, testPayload(64<<20))
	if c.spare != nil {
		t.Fatalf("after a 64 MiB transfer the Conn keeps a %d-byte buffer", cap(c.spare))
	}
	mustTransfer(t, c, 2, testPayload(1<<20))
	if n := cap(c.spare); n == 0 || n > maxPresize {
		t.Fatalf("after a 1 MiB transfer the Conn keeps a %d-byte buffer", n)
	}
}

func benchTransfer(b *testing.B, fwd Plan) {
	payload := testPayload(1 << 20)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fwd.Seed = int64(i)
		c, _ := newTestConn(fwd, Plan{}, Config{})
		if _, err := c.Transfer(1, payload); err != nil {
			b.Fatal(err)
		}
		if _, ok := c.Take(1); !ok {
			b.Fatal("incomplete")
		}
	}
}

func BenchmarkTransferClean(b *testing.B) { benchTransfer(b, Plan{}) }
func BenchmarkTransferLossy(b *testing.B) {
	benchTransfer(b, Plan{DropProb: 0.02, DupProb: 0.01, ReorderProb: 0.01, CorruptProb: 0.01})
}

// benchTransferSteady ships back-to-back 1 MiB transfers through one Conn, as
// a replica's syncs do: the frame slots and the receive buffer are reused
// from one op to the next, which benchTransfer's fresh Conn per op cannot see.
func benchTransferSteady(b *testing.B, fwd Plan) {
	payload := testPayload(1 << 20)
	c, _ := newTestConn(fwd, Plan{}, Config{})
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch := uint64(i + 1)
		if _, err := c.Transfer(epoch, payload); err != nil {
			b.Fatal(err)
		}
		if _, ok := c.Take(epoch); !ok {
			b.Fatal("incomplete")
		}
	}
}

func BenchmarkTransferSteadyClean(b *testing.B) { benchTransferSteady(b, Plan{}) }
func BenchmarkTransferSteadyLossy(b *testing.B) {
	benchTransferSteady(b, Plan{Seed: 1, DropProb: 0.02, DupProb: 0.01, ReorderProb: 0.01, CorruptProb: 0.01})
}

func ExamplePlan() {
	fmt.Println(Plan{Seed: 1, DropProb: 0.25}.String())
	// Output: seed=1 probs(drop=0.25 dup=0 reorder=0 corrupt=0) faults=0
}

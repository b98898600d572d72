package net

import (
	"testing"

	"aurora/internal/trace"
)

// The trace-context (machine id, span id) rides every Hello and Data
// frame so a receiver can stitch the ship into the merged fleet
// timeline. These tests pin the wire round-trip and the session capture.

func TestFrameCtxRoundTrip(t *testing.T) {
	raw := EncodeFrameCtx(FrameData, 7, 3, 9, 0xdead, 0xbeef, []byte("hi"))
	f, err := DecodeFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if f.SrcID != 0xdead || f.SpanID != 0xbeef {
		t.Fatalf("ctx lost on wire: %+v", f)
	}
	// The ctxless helper ships a zero context.
	f, err = DecodeFrame(EncodeFrame(FrameData, 7, 3, 9, nil))
	if err != nil {
		t.Fatal(err)
	}
	if f.SrcID != 0 || f.SpanID != 0 {
		t.Fatalf("EncodeFrame leaked a context: %+v", f)
	}
}

func TestSessionContextCapture(t *testing.T) {
	c, clk := newTestConn(Plan{}, Plan{}, Config{FrameData: 64})
	src := trace.MachineID("primary")
	c.SetSource(src)
	// Untraced conn: span id is 0, but the source id still rides.
	if _, err := c.Transfer(1, testPayload(300)); err != nil {
		t.Fatal(err)
	}
	gotSrc, gotSpan, ok := c.SessionContext(1)
	if !ok || gotSrc != src || gotSpan != 0 {
		t.Fatalf("session ctx = (%d,%d,%v), want src=%d span=0", gotSrc, gotSpan, ok, src)
	}
	if _, _, ok := c.SessionContext(99); ok {
		t.Fatal("ctx for absent session")
	}

	// Traced conn: the transfer span id lands in the session and the
	// completed span carries the matching flow_out annotation.
	tr := trace.New(clk)
	c2 := NewConn(NewPipe(clk, DefaultParams(), Plan{}, Plan{}), clk, Config{FrameData: 64}, tr)
	c2.SetSource(src)
	if _, err := c2.Transfer(5, testPayload(200)); err != nil {
		t.Fatal(err)
	}
	_, span, ok := c2.SessionContext(5)
	if !ok || span == 0 {
		t.Fatalf("traced session ctx: span=%d ok=%v", span, ok)
	}
	want := int64(trace.FlowID(src, span))
	found := false
	for _, ev := range tr.Events() {
		if ev.Name != "net.transfer" {
			continue
		}
		for _, a := range ev.Args {
			if a.Key == trace.FlowOut && a.Int == want {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("transfer span missing flow_out annotation")
	}
	// Take clears the session and its context with it.
	if _, ok := c2.Take(5); !ok {
		t.Fatal("take failed")
	}
	if _, _, ok := c2.SessionContext(5); ok {
		t.Fatal("ctx survived Take")
	}
}

package net

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzNetFrame throws arbitrary bytes at the wire-frame decoder. The
// invariants: DecodeFrame never panics, never allocates beyond the frame
// caps, and every frame it accepts re-encodes to the identical bytes
// (accept implies well-formed).
func FuzzNetFrame(f *testing.F) {
	// Seed with real frames of every type, plus mutations fuzzing tends to
	// need help finding (truncations, flipped CRC bytes).
	seeds := [][]byte{
		EncodeFrame(FrameHello, 1, 0, 10, nil),
		EncodeFrame(FrameHelloAck, 1, 3, 10, nil),
		EncodeFrame(FrameData, 2, 5, 10, bytes.Repeat([]byte{0xab}, 100)),
		EncodeFrame(FrameData, 2, 0, 1, nil),
		EncodeFrame(FrameAck, 2, 10, 10, nil),
		EncodeFrame(FrameData, ^uint64(0), 0, 1, []byte{0}),
	}
	for _, s := range seeds {
		f.Add(s)
		if len(s) > 4 {
			f.Add(s[:len(s)-4]) // CRC stripped
			mut := append([]byte(nil), s...)
			mut[len(mut)-1] ^= 0xff // CRC flipped
			f.Add(mut)
		}
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	// An ack from a receiver holding frames 5, 6 and 9 past a gap at 4.
	f.Add(EncodeFrame(FrameAck, 2, 4, 10, binary.LittleEndian.AppendUint64(nil, 0b10011)))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data)
		if err != nil {
			if fr != nil {
				t.Fatal("error with non-nil frame")
			}
			return
		}
		if len(fr.Payload) > MaxFramePayload {
			t.Fatalf("accepted oversized payload: %d", len(fr.Payload))
		}
		if fr.Total > MaxTransferFrames {
			t.Fatalf("accepted oversized total: %d", fr.Total)
		}
		if fr.Type < FrameHello || fr.Type > FrameAck {
			t.Fatalf("accepted unknown type %d", fr.Type)
		}
		if n := len(fr.Payload); fr.Type != FrameData && n != 0 && (fr.Type != FrameAck || n != sackBytes) {
			t.Fatalf("accepted a type %d frame with a %d-byte payload", fr.Type, n)
		}
		re := EncodeFrameCtx(fr.Type, fr.Epoch, fr.Seq, fr.Total, fr.SrcID, fr.SpanID, fr.Payload)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted frame does not round-trip: %d vs %d bytes", len(re), len(data))
		}
	})
}

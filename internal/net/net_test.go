package net

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"aurora/internal/clock"
	"aurora/internal/trace"
)

// traced attaches a timeline tracer to l.
func traced(clk clock.Clock, l *Link) *trace.Tracer {
	tr := trace.New(clk)
	l.SetTracer(tr)
	return tr
}

// faults counts the fault instants ("net.link.drop", ...) l's tracer
// recorded, by name.
func faults(tr *trace.Tracer) map[string]int {
	n := make(map[string]int)
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KindInstant {
			n[ev.Name]++
		}
	}
	return n
}

func TestLinkCleanDelivery(t *testing.T) {
	clk := clock.NewVirtual()
	l := NewLink(clk, Params{Latency: 10 * time.Microsecond, PerByte: time.Nanosecond}, Plan{})
	tr := traced(clk, l)
	l.Send(bytes.Repeat([]byte{0xaa}, 1000))
	// Serialization charged at send time.
	if got, want := clk.Now(), 1000*time.Nanosecond; got != want {
		t.Fatalf("after send clock=%v want %v", got, want)
	}
	b, ok := l.Recv()
	if !ok || len(b) != 1000 {
		t.Fatalf("recv = %d bytes ok=%v", len(b), ok)
	}
	// Recv advances to the arrival instant: send end + latency.
	if got, want := clk.Now(), 1000*time.Nanosecond+10*time.Microsecond; got != want {
		t.Fatalf("after recv clock=%v want %v", got, want)
	}
	if _, ok := l.Recv(); ok {
		t.Fatal("empty link delivered a frame")
	}
	if n := faults(tr); l.Xmits() != 1 || len(n) != 0 {
		t.Fatalf("xmits = %d, faults = %v", l.Xmits(), n)
	}
}

func TestLinkOrderPreservedWhenClean(t *testing.T) {
	clk := clock.NewVirtual()
	l := NewLink(clk, DefaultParams(), Plan{})
	for i := 0; i < 8; i++ {
		l.Send([]byte{byte(i)})
	}
	for i := 0; i < 8; i++ {
		b, ok := l.Recv()
		if !ok || b[0] != byte(i) {
			t.Fatalf("frame %d: got %v ok=%v", i, b, ok)
		}
	}
}

func TestLinkDeterministicFaults(t *testing.T) {
	run := func(kind FaultKind) (map[string]int, [][]byte) {
		clk := clock.NewVirtual()
		l := NewLink(clk, DefaultParams(), Plan{Faults: []Fault{{Xmit: 1, Kind: kind}}})
		tr := traced(clk, l)
		for i := 0; i < 3; i++ {
			l.Send([]byte{byte(i), 0x55})
		}
		var out [][]byte
		for {
			b, ok := l.Recv()
			if !ok {
				break
			}
			out = append(out, b)
		}
		return faults(tr), out
	}

	n, out := run(FaultDrop)
	if n["net.link.drop"] != 1 || len(n) != 1 || len(out) != 2 {
		t.Fatalf("drop: faults=%v frames=%d", n, len(out))
	}
	n, out = run(FaultDup)
	if n["net.link.dup"] != 1 || len(n) != 1 || len(out) != 4 {
		t.Fatalf("dup: faults=%v frames=%d", n, len(out))
	}
	n, out = run(FaultReorder)
	if n["net.link.reorder"] != 1 || len(n) != 1 || len(out) != 3 {
		t.Fatalf("reorder: faults=%v frames=%d", n, len(out))
	}
	// The reordered frame (index 1) arrives after frame 2.
	if out[1][0] != 2 || out[2][0] != 1 {
		t.Fatalf("reorder order: got %v %v %v", out[0][0], out[1][0], out[2][0])
	}
	n, out = run(FaultCorrupt)
	if n["net.link.corrupt"] != 1 || len(n) != 1 || len(out) != 3 {
		t.Fatalf("corrupt: faults=%v frames=%d", n, len(out))
	}
	if bytes.Equal(out[1], []byte{1, 0x55}) {
		t.Fatal("corrupt fault delivered the frame unmodified")
	}
}

func TestLinkCorruptDoesNotAliasCallerBuffer(t *testing.T) {
	clk := clock.NewVirtual()
	l := NewLink(clk, DefaultParams(), Plan{Faults: []Fault{{Xmit: 0, Kind: FaultCorrupt}}})
	buf := []byte{1, 2, 3, 4}
	orig := append([]byte(nil), buf...)
	l.Send(buf)
	if !bytes.Equal(buf, orig) {
		t.Fatal("Send corrupted the caller's buffer in place")
	}
}

func TestLinkPartitionWindow(t *testing.T) {
	clk := clock.NewVirtual()
	l := NewLink(clk, Params{Latency: 10 * time.Microsecond}, Plan{})
	tr := traced(clk, l)
	l.AddPartition(50 * time.Microsecond)
	l.Send([]byte{1}) // t=0: inside window, lost
	if n := faults(tr); n["net.link.partition-drop"] != 1 {
		t.Fatalf("faults = %v", n)
	}
	clk.Advance(60 * time.Microsecond)
	l.Send([]byte{2}) // past the window
	b, ok := l.Recv()
	if !ok || b[0] != 2 {
		t.Fatalf("post-partition recv = %v ok=%v", b, ok)
	}
}

func TestLinkIndexTriggeredPartition(t *testing.T) {
	clk := clock.NewVirtual()
	l := NewLink(clk, Params{Latency: 10 * time.Microsecond}, Plan{
		Faults: []Fault{{Xmit: 2, Kind: FaultPartition, For: time.Millisecond}},
	})
	tr := traced(clk, l)
	l.Send([]byte{0})
	l.Send([]byte{1})
	l.Send([]byte{2}) // triggers the partition and is itself lost
	l.Send([]byte{3}) // still inside the window
	if n := faults(tr); n["net.link.partition-drop"] != 2 {
		t.Fatalf("faults = %v", n)
	}
	clk.Advance(2 * time.Millisecond)
	l.Send([]byte{4})
	var got []byte
	for {
		b, ok := l.Recv()
		if !ok {
			break
		}
		got = append(got, b[0])
	}
	if !bytes.Equal(got, []byte{0, 1, 4}) {
		t.Fatalf("delivered = %v", got)
	}
}

func TestLinkAddPartitionMidRun(t *testing.T) {
	clk := clock.NewVirtual()
	l := NewLink(clk, Params{Latency: 10 * time.Microsecond}, Plan{})
	l.Send([]byte{0})
	l.AddPartition(100 * time.Microsecond)
	l.Send([]byte{1}) // lost: inside the pulled-cable window
	clk.Advance(200 * time.Microsecond)
	l.Send([]byte{2})
	var got []byte
	for {
		b, ok := l.Recv()
		if !ok {
			break
		}
		got = append(got, b[0])
	}
	if !bytes.Equal(got, []byte{0, 2}) {
		t.Fatalf("delivered = %v", got)
	}
}

// TestLinkProbabilisticReplay pins the determinism contract: the same plan
// against the same send sequence produces the identical fault history.
func TestLinkProbabilisticReplay(t *testing.T) {
	run := func() ([]trace.Event, []time.Duration) {
		clk := clock.NewVirtual()
		l := NewLink(clk, Params{Latency: 15 * time.Microsecond, PerByte: time.Nanosecond},
			Plan{Seed: 42, DropProb: 0.1, DupProb: 0.1, ReorderProb: 0.1, CorruptProb: 0.1})
		tr := traced(clk, l)
		for i := 0; i < 200; i++ {
			l.Send(bytes.Repeat([]byte{byte(i)}, 64))
		}
		var arrivals []time.Duration
		for {
			_, ok := l.Recv()
			if !ok {
				break
			}
			arrivals = append(arrivals, clk.Now())
		}
		return tr.Events(), arrivals
	}
	e1, a1 := run()
	e2, a2 := run()
	if !reflect.DeepEqual(e1, e2) {
		t.Fatalf("fault history diverged:\n%+v\n%+v", e1, e2)
	}
	n := make(map[string]int)
	for _, ev := range e1 {
		n[ev.Name]++
	}
	if n["net.link.drop"] == 0 || n["net.link.dup"] == 0 || n["net.link.reorder"] == 0 || n["net.link.corrupt"] == 0 {
		t.Fatalf("probabilistic plan injected nothing: %v", n)
	}
	if len(a1) != len(a2) {
		t.Fatalf("delivery count diverged: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("arrival %d diverged: %v vs %v", i, a1[i], a2[i])
		}
	}
}

func TestPipeDirectionsIndependent(t *testing.T) {
	clk := clock.NewVirtual()
	p := NewPipe(clk, DefaultParams(), Plan{DropProb: 1}, Plan{})
	p.Fwd.Send([]byte{1})
	p.Rev.Send([]byte{2})
	if _, ok := p.Fwd.Recv(); ok {
		t.Fatal("fwd plan drop=1 delivered a frame")
	}
	b, ok := p.Rev.Recv()
	if !ok || b[0] != 2 {
		t.Fatal("clean rev direction lost a frame")
	}
}

func TestPipeCut(t *testing.T) {
	clk := clock.NewVirtual()
	p := NewPipe(clk, Params{Latency: 10 * time.Microsecond}, Plan{}, Plan{})
	p.Cut(100 * time.Microsecond)
	p.Fwd.Send([]byte{1})
	p.Rev.Send([]byte{2})
	if _, ok := p.Fwd.Recv(); ok {
		t.Fatal("cut fwd delivered")
	}
	if _, ok := p.Rev.Recv(); ok {
		t.Fatal("cut rev delivered")
	}
	clk.Advance(time.Millisecond)
	p.Fwd.Send([]byte{3})
	if _, ok := p.Fwd.Recv(); !ok {
		t.Fatal("healed fwd lost a frame")
	}
}

package aurora_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash/crc32"
	"testing"
	"time"

	"aurora"
	"aurora/internal/vm"
)

// runDeterministic drives one fixed workload — dirty pages, incremental
// checkpoints, a send stream — on a traced machine, and returns the emitted
// disk image, the send stream, and the trace event sequence.
func runDeterministic(t *testing.T) (image, stream []byte, events []string) {
	t.Helper()
	m, err := aurora.NewMachine(aurora.Config{StorageBytes: 1 << 30, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	p := m.Spawn("det")
	va, err := p.Mmap(1<<20, aurora.ProtRead|aurora.ProtWrite, false)
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.Attach("det", p)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	for round := 0; round < 3; round++ {
		for i := 0; i < 40; i++ {
			buf[0] = byte(round*40 + i)
			if err := p.WriteMem(va+uint64(i)*vm.PageSize, buf); err != nil {
				t.Fatal(err)
			}
		}
		m.Clock.Advance(time.Millisecond)
		if _, err := g.Checkpoint(aurora.CkptIncremental); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}

	var sendBuf bytes.Buffer
	if err := g.Send(&sendBuf); err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := m.SaveImage(&img); err != nil {
		t.Fatal(err)
	}
	for _, e := range m.Tracer.Events() {
		events = append(events, fmt.Sprintf("%d %v %s %d %d", e.Kind, e.Track, e.Name, e.Start, e.Dur))
	}
	return img.Bytes(), sendBuf.Bytes(), events
}

// TestTwoJobFlushPinned holds the flush of a checkpoint with two jobs — two
// large memory objects dirty in every interval, rocksdb-journal's shape — to
// the device image, the virtual clock, the device's write count and the
// restored memory, through a full image, three incremental checkpoints, a
// crash and a full restore. Block layout follows the order the two jobs reach
// the store, so this is the pin that says the order is the plan's: it holds
// at any GOMAXPROCS.
func TestTwoJobFlushPinned(t *testing.T) {
	const pages = 1024 // per object: 4 MiB each
	m, err := aurora.NewMachine(aurora.Config{StorageBytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	p := m.Spawn("two")
	var vas [2]uint64
	for i := range vas {
		if vas[i], err = p.Mmap(pages*vm.PageSize, aurora.ProtRead|aurora.ProtWrite, false); err != nil {
			t.Fatal(err)
		}
	}
	g, err := m.Attach("two", p)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for round := 0; round < 4; round++ {
		stride := 1 + round // round 0 dirties every page; later rounds a subset
		for i, va := range vas {
			for pg := 0; pg < pages; pg += stride {
				buf[0], buf[1], buf[2] = byte(round), byte(i), byte(pg)
				if err := p.WriteMem(va+uint64(pg)*vm.PageSize, buf); err != nil {
					t.Fatal(err)
				}
			}
		}
		m.Clock.Advance(time.Millisecond)
		if _, err := g.Checkpoint(aurora.CkptIncremental); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}
	m2, err := m.Crash()
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := m2.Restore("two")
	if err != nil {
		t.Fatal(err)
	}
	mem := make([]byte, 2*pages*vm.PageSize)
	for i, va := range vas {
		if err := g2.Procs()[0].ReadMem(va, mem[i*pages*vm.PageSize:(i+1)*pages*vm.PageSize]); err != nil {
			t.Fatal(err)
		}
	}
	h := sha256.New()
	if err := m2.SaveImage(h); err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("image=%x clock=%d writes=%d mem=%08x",
		h.Sum(nil), m2.Clock.Now(), m2.Disk.Stats().Writes, crc32.ChecksumIEEE(mem))
	const want = "image=d221d6b8ceb95c32a32ffadfc7cf0eef602573e992b1cbfec698769569e52eaf clock=23349545 writes=343 mem=53380b4d"
	if got != want {
		t.Errorf("two-job flush moved:\n got %s\nwant %s", got, want)
	}
}

// TestRunToRunDeterminism pins the map-iteration sweep: two runs of the
// identical workload must emit byte-identical disk images and send
// streams, and record the identical trace event sequence. Any unsorted map
// range left on the serialize, send, or restore paths shows up here as a
// diff.
func TestRunToRunDeterminism(t *testing.T) {
	img1, stream1, ev1 := runDeterministic(t)
	img2, stream2, ev2 := runDeterministic(t)

	if !bytes.Equal(img1, img2) {
		n := 0
		for i := range img1 {
			if img1[i] != img2[i] {
				n++
			}
		}
		t.Errorf("disk images differ: %d bytes (len %d vs %d)", n, len(img1), len(img2))
	}
	if !bytes.Equal(stream1, stream2) {
		t.Errorf("send streams differ (len %d vs %d)", len(stream1), len(stream2))
	}
	if len(ev1) != len(ev2) {
		t.Fatalf("trace event counts differ: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Fatalf("trace event %d differs:\n  run1: %s\n  run2: %s", i, ev1[i], ev2[i])
		}
	}
}

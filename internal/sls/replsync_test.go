package sls

// The sync shape of the replica-failover benchmark workload at unit scale,
// pinned on both ends and measured: what a page costs to ship over a lossy
// wire, and what the standby does with it.

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"aurora/internal/kern"
	"aurora/internal/net"
	"aurora/internal/vm"
)

// syncShapePages is the replicated region: every fourth page of it, from a
// seeded offset, is rewritten between syncs.
const syncShapePages = 1024

// syncShape is a primary replicating a syncShapePages region to a standby over
// a wire that drops 2 % of the frames each way, seeded and ready to sync.
type syncShape struct {
	src, dst *world
	rep      *Replica
	p        *kern.Proc
	va       uint64
	rng      *rand.Rand
}

func newSyncShape(tb testing.TB) *syncShape {
	tb.Helper()
	src, err := newWorldSized(256<<20, nil)
	if err != nil {
		tb.Fatal(err)
	}
	dst, err := newWorldSized(256<<20, nil)
	if err != nil {
		tb.Fatal(err)
	}
	p := src.k.NewProc("app")
	g := src.o.CreateGroup("app")
	g.Period = 0
	g.RetainEpochs = 4
	if err := g.Attach(p); err != nil {
		tb.Fatal(err)
	}
	va, err := p.Mmap(syncShapePages*vm.PageSize, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		tb.Fatal(err)
	}
	s := &syncShape{src: src, dst: dst, p: p, va: va, rng: rand.New(rand.NewSource(1))}
	for pg := uint64(0); pg < syncShapePages; pg++ {
		if err := p.WriteMem(va+pg*vm.PageSize, []byte{byte(pg), byte(pg >> 8)}); err != nil {
			tb.Fatal(err)
		}
	}
	conn := net.NewConn(net.NewPipe(src.clk, net.DefaultParams(),
		net.Plan{Seed: 1, DropProb: 0.02}, net.Plan{Seed: 2, DropProb: 0.02}), src.clk, net.Config{}, nil)
	if s.rep, err = g.ReplicateToVia(dst.o, conn); err != nil {
		tb.Fatal(err)
	}
	return s
}

// rewrite dirties a quarter of the region for sync i.
func (s *syncShape) rewrite(tb testing.TB, i int) {
	for pg := uint64(s.rng.Intn(4)); pg < syncShapePages; pg += 4 {
		if err := s.p.WriteMem(s.va+pg*vm.PageSize, []byte{byte(i), byte(i >> 8), byte(pg)}); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestReplicaStandbyImagePinned runs 100 syncs of the shape and fails over,
// then pins the standby's device image, both clocks and the standby's device
// counters. The pin was taken before the receive path decoded the stream in
// place: the standby must write the same blocks, in the same order, at the
// same virtual times, however the stream reaches it. Only its device command
// count follows how it batches them: 27 293 when it wrote page by page, 13 517
// since each page run lands through WritePages. Both clocks were re-pinned
// 3 041 280 ns earlier when the collapse of each sync's previous shadows (99 ×
// 256 pages at 120 ns each) left the stop window; the standby's image, its
// device counters and the wire did not move. The standby's clock was re-pinned
// 457 220 ns earlier, and its reads went from 1 024 (4 MiB) to none, when it
// began keeping the pages it receives resident: the failover installs them
// unread, and each sync's copy (256 pages at 400 ns) lands after its commit,
// inside the wait for the next stream. The image, the writes and the primary's
// clock did not move.
func TestReplicaStandbyImagePinned(t *testing.T) {
	s := newSyncShape(t)
	for i := 1; i <= 100; i++ {
		s.rewrite(t, i)
		if err := s.rep.Sync(); err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
	}
	if _, _, err := s.rep.Failover(RestoreFull); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := s.dst.dev.Save(h); err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("standby=%x src-clock=%d dst-clock=%d disk=%+v wire=%d retx=%d",
		h.Sum(nil)[:12], s.src.clk.Now(), s.dst.clk.Now(), s.dst.dev.Stats(), s.rep.WireBytes, s.rep.Retransmits)
	const want = "standby=6d33777c2a9e69693f7341b5 src-clock=274943353 dst-clock=275047553 " +
		"disk={Reads:0 Writes:13517 BytesRead:0 BytesWritten:112938164} wire=112324474 retx=68"
	if got != want {
		t.Fatalf("standby after 100 syncs and a failover\n got %s\nwant %s", got, want)
	}
}

// BenchmarkReplicaSyncPages is one sync of the shape: a checkpoint of 256
// changed pages, the ship over the lossy wire and the standby's receive.
// ns/op, B/op and allocs/op are the Go; virt-us/op is the modelled sync on
// the primary's clock.
func BenchmarkReplicaSyncPages(b *testing.B) {
	s := newSyncShape(b)
	var virt time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.rewrite(b, i+1)
		b.StartTimer()
		t0 := s.src.clk.Now()
		if err := s.rep.Sync(); err != nil {
			b.Fatal(err)
		}
		virt += s.src.clk.Now() - t0
	}
	b.ReportMetric(float64(virt)/float64(b.N)/1e3, "virt-us/op")
}

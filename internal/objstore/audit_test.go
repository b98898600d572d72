package objstore

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"aurora/internal/clock"
	"aurora/internal/device"
)

// auditBase builds a small committed store holding every kind of claim
// AuditLive checks: inline records (oids 1 and 3), a paged object's chunk
// (oid 2), a journal extent (oid 3), three retained indexes, five deadlist
// blocks and a free map of one run. Data region blocks from 1026: index of
// epoch 1, the journal extent (1027–1030), epoch 2's pages, records and
// index, then epoch 3's pages (1039–1041), chunk 0 of oid 2 (1042), oid 2's
// record (1043), epoch 3's index (1044) and the free run from 1045.
func auditBase(t testing.TB) *Store {
	t.Helper()
	clk := clock.NewVirtual()
	dev := device.NewStripe(clk, clock.DefaultCosts(), 4, 64<<10, 512<<20)
	s, err := Format(dev, clk, clock.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	rec, paged, jour := s.NewOID(), s.NewOID(), s.NewOID()
	if err := s.PutRecord(rec, 1, []byte("an inline record")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateJournal(jour, 9, 4*BlockSize); err != nil {
		t.Fatal(err)
	}
	s.Ensure(paged, 2)
	for round := int64(0); round < 2; round++ {
		for pg := int64(0); pg < 3; pg++ {
			if err := s.WritePage(paged, pg, pageOf(paged, pg+round)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if p := s.AuditLive(); len(p) > 0 {
		t.Fatalf("base store audits dirty: %q", p)
	}
	return s
}

// TestAuditLiveReportsPinned plants one violation (or, in some cases, two)
// per case in auditBase's store and pins AuditLive's exact report: every
// rule, each claim kind out of range, each pairing of claim kinds, and the
// order reports come in. The fsck rows pin Fsck's report of a plant only its
// page walk sees.
func TestAuditLiveReportsPinned(t *testing.T) {
	chunk0 := func(s *Store) int64 { return chunkOf(s.get(2), 0).addr }
	extent := func(s *Store) int64 { return s.get(3).journal.extentAddr }
	type pinned struct {
		name  string
		plant func(s *Store)
		want  []string
	}
	cases := []pinned{
		// A claim outside the data region, misaligned or empty.
		{"record out of range", func(s *Store) { s.get(1).recordAddr = BlockSize },
			[]string{"store: record of oid 1 claims out-of-range run [4096,+1 blocks)"}},
		{"journal extent out of range", func(s *Store) { s.get(3).journal.extentAddr = s.dev.Size() - 2*BlockSize },
			[]string{"store: journal extent of oid 3 claims out-of-range run [2147475456,+4 blocks)"}},
		{"chunk out of range", func(s *Store) { chunkOf(s.get(2), 0).addr = s.dataStart() + 1 },
			[]string{"store: chunk 0 of oid 2 claims out-of-range run [4202497,+1 blocks)"}},
		{"retained index out of range", func(s *Store) { s.retained[0].indexAddr = 0 },
			[]string{"store: index of epoch 1 claims out-of-range run [0,+1 blocks)"}},
		{"free run out of range", func(s *Store) { s.free[0].n++ },
			[]string{"store: free map claims out-of-range run [4280320,+523244 blocks)"}},
		{"staged release out of range", func(s *Store) { s.releasing = []blockRun{{s.free[0].addr, 0}} },
			[]string{"store: staged release claims out-of-range run [4280320,+0 blocks)"}},
		{"queued release out of range", func(s *Store) {
			s.releaseQ = []stagedRelease{{at: time.Second, runs: []blockRun{{2 * BlockSize, 1}}}}
		}, []string{"store: release queue claims out-of-range run [8192,+1 blocks)"}},
		{"deadlist out of range", func(s *Store) { s.deadlist[0].addr = -BlockSize },
			[]string{"store: deadlist claims out-of-range run [-4096,+1 blocks)"}},

		// Two claims on one block.
		{"record in a free run", func(s *Store) { s.get(1).recordAddr = s.free[0].addr + 2*BlockSize },
			[]string{"store: block 4288512 claimed by both free map and record of oid 1"}},
		{"chunk on the deadlist", func(s *Store) {
			s.deadlist = append(s.deadlist, deadBlock{addr: chunk0(s), birth: 2, freedAt: 3})
		}, []string{"store: block 4268032 claimed by both chunk 0 of oid 2 and deadlist"}},
		{"journal extent staged for release", func(s *Store) { s.releasing = []blockRun{{extent(s) + BlockSize, 2}} },
			[]string{"store: block 4210688 claimed by both journal extent of oid 3 and staged release"}},
		{"retained index queued for release", func(s *Store) {
			s.releaseQ = []stagedRelease{{at: time.Second, runs: []blockRun{{s.retained[1].indexAddr, 1}}}}
		}, []string{"store: block 4251648 claimed by both index of epoch 2 and release queue"}},
		{"staged release reaching into the free run", func(s *Store) {
			s.releasing = []blockRun{{s.free[0].addr - BlockSize, 3}}
		}, []string{"store: block 4276224 claimed by both index of epoch 3 and staged release", "store: block 4280320 claimed by both staged release and free map"}},
		{"deadlist block listed twice", func(s *Store) { s.deadlist = append(s.deadlist, s.deadlist[2]) },
			[]string{"store: block 4231168 claimed by both deadlist and deadlist"}},
		{"one free run over two claims", func(s *Store) { s.free = append(s.free, blockRun{chunk0(s) - BlockSize, 3}) },
			[]string{"store: block 4268032 claimed by both free map and chunk 0 of oid 2", "store: block 4272128 claimed by both free map and record of oid 2"}},

		// The walk's other rules.
		{"negative size", func(s *Store) { s.get(1).size = -5 },
			[]string{"store: oid 1 has negative size -5"}},
		{"retained epochs out of order", func(s *Store) { s.retained[1].epoch = 1 },
			[]string{"store: retained epochs out of order: 1 then 1"}},
		{"newest retained is not the epoch", func(s *Store) { s.epoch = 4 },
			[]string{"store: newest retained epoch 3 != committed epoch 4"}},
		{"unmerged free map", func(s *Store) {
			r := s.free[0]
			s.free = []blockRun{{r.addr + BlockSize, r.n - 1}, {r.addr, 1}}
		}, []string{"store: free map out of order or unmerged at run 1"}},
		{"release queue stamps out of order", func(s *Store) {
			s.releaseQ = []stagedRelease{{at: 5 * time.Millisecond}, {at: 3 * time.Millisecond}}
		}, []string{"store: release queue stamps out of order at entry 1"}},
		{"bad deadlist lifetime", func(s *Store) { s.deadlist[1].birth = s.deadlist[1].freedAt },
			[]string{"store: deadlist block 4227072 has lifetime [3,3)"}},

		// Durability and the WAL ring.
		{"durability not monotone", func(s *Store) {
			s.retained[1].durable, s.retained[2].durable = 2*time.Millisecond, time.Millisecond
		}, []string{"store: epoch 3 durable at 1ms before epoch 2 at 2ms"}},
		{"wal head outside the ring", func(s *Store) { s.walHead = s.walBlocks*BlockSize + walSector },
			[]string{"store: wal head 4194816 outside region of 1024 blocks"}},
		{"wal head off a sector", func(s *Store) { s.walHead = 1 },
			[]string{"store: wal head 1 not sector aligned"}},
		{"wal frames in an empty ring", func(s *Store) { s.walFrames = 1 },
			[]string{"store: wal seq 1 with empty ring"}},

		// Order: double claims by block, after the walk's other rules.
		{"two double claims planted in reverse address order", func(s *Store) {
			s.get(1).recordAddr = s.free[0].addr + 2*BlockSize
			s.deadlist = append(s.deadlist, s.deadlist[0])
		}, []string{"store: block 4222976 claimed by both deadlist and deadlist", "store: block 4288512 claimed by both free map and record of oid 1"}},
		{"a double claim beside a negative size", func(s *Store) {
			s.deadlist = append(s.deadlist, s.deadlist[4])
			s.get(2).size = -1
		}, []string{"store: oid 2 has negative size -1", "store: block 4243456 claimed by both deadlist and deadlist"}},
	}
	// Fsck runs the same walk over every data page as well: these rows pin
	// its whole report, the page claims, conservation and the scrub included.
	page := func(s *Store, pg int64) *int64 { return &chunkOf(s.get(2), 0).addrs[pg] }
	fsckCases := []pinned{
		{"fsck: a leaked block", func(s *Store) { s.deadlist = s.deadlist[1:] },
			[]string{"store: 1 blocks held by nothing, the first at 4222976"}},
		{"fsck: a page inside a free run", func(s *Store) { *page(s, 0) = s.free[0].addr + 2*BlockSize },
			[]string{"object 2: page 0 at 0x417000 checksum 0xc71c0011, chunk says 0xc542cf1f (torn or rotted)",
				"store: block 4288512 claimed by both free map and page 0 of oid 2",
				"store: 1 blocks held by nothing, the first at 4255744"}},
		{"fsck: a page on the deadlist", func(s *Store) { *page(s, 0) = s.deadlist[0].addr },
			[]string{"object 2: page 0 at 0x407000 checksum 0x67a332ae, chunk says 0xc542cf1f (torn or rotted)",
				"store: block 4222976 claimed by both page 0 of oid 2 and deadlist",
				"store: 1 blocks held by nothing, the first at 4255744"}},
		{"fsck: a page claimed by two objects", func(s *Store) {
			c := &chunk{loaded: true, dirty: true}
			c.addrs[1], c.sums[1] = *page(s, 1), chunkOf(s.get(2), 0).sums[1]
			s.get(1).chunks = chunkTable(map[int64]*chunk{0: c})
		}, []string{"store: block 4259840 claimed by both page 1 of oid 1 and page 1 of oid 2"}},
		{"fsck: a page out of range", func(s *Store) { *page(s, 2) = s.dev.Size() },
			[]string{"store: page 2 of oid 2 claims out-of-range run [2147483648,+1 blocks)",
				"store: 1 blocks held by nothing, the first at 4263936"}},
	}
	for i, tc := range append(cases, fsckCases...) {
		t.Run(tc.name, func(t *testing.T) {
			s := auditBase(t)
			tc.plant(s)
			got := s.AuditLive()
			if i >= len(cases) {
				got = s.Fsck().Problems
			}
			if g, w := strings.Join(got, "\n"), strings.Join(tc.want, "\n"); g != w {
				t.Errorf("report:\n%s\nwant:\n%s", g, w)
			}
		})
	}
}

// TestAuditDoubleClaimsMatchSweep plants random runs on auditBase's store —
// deadlist blocks and staged and queued releases, in use, in the free run,
// across its start and at the device's end — and checks AuditLive's double
// claims against a sweep of every claim sorted by address (ties in claim
// order), the report the bitmap's search stands in for.
func TestAuditDoubleClaimsMatchSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 300; round++ {
		s := auditBase(t)
		lo, top, end := s.dataStart()/BlockSize, s.free[0].addr/BlockSize, s.dev.Size()/BlockSize
		block := func() int64 {
			switch rng.Intn(4) {
			case 0:
				return end - 1 - rng.Int63n(8)
			case 1:
				return top - 4 + rng.Int63n(8)
			}
			return lo + rng.Int63n(top-lo+200)
		}
		for n := rng.Intn(6); n > 0; n-- {
			switch rng.Intn(3) {
			case 0:
				s.deadlist = append(s.deadlist, deadBlock{addr: block() * BlockSize, birth: 2, freedAt: 3})
			case 1:
				b := block()
				s.releasing = append(s.releasing, blockRun{b * BlockSize, min(1+rng.Int63n(140), end-b)})
			default:
				b := block()
				s.releaseQ = append(s.releaseQ, stagedRelease{runs: []blockRun{{b * BlockSize, min(1+rng.Int63n(140), end-b)}}})
			}
		}
		var got []string
		for _, p := range s.AuditLive() {
			if strings.Contains(p, "claimed by both") {
				got = append(got, p)
			}
		}
		claims := slices.Clone(s.audit.claims)
		slices.SortStableFunc(claims, func(x, y claim) int { return cmp.Compare(x.addr, y.addr) })
		var want []string
		var reach claim
		for _, c := range claims {
			if c.addr < reach.end() {
				want = append(want, fmt.Sprintf("store: block %d claimed by both %s and %s", c.addr, reach, c))
			}
			if c.end() > reach.end() {
				reach = c
			}
		}
		if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
			t.Fatalf("round %d: double claims:\n%s\nsweep:\n%s", round, g, w)
		}
	}
}

// auditLoad builds a store the size of a long restore chain's: 1 000
// records rewritten over ten retained checkpoints (10 000 deadlist blocks)
// and, in the open interval, 1 100 single-block free runs, left by deleting
// an object whose pages alternate with another's.
func auditLoad(tb testing.TB) *Store {
	tb.Helper()
	s := auditBase(tb)
	oids := make([]OID, 1000)
	for i := range oids {
		oids[i] = s.NewOID()
	}
	for round := 0; round <= 10; round++ {
		for _, oid := range oids {
			if err := s.PutRecord(oid, 1, []byte(fmt.Sprintf("record %d of oid %d", round, oid))); err != nil {
				tb.Fatal(err)
			}
		}
		if _, err := s.Checkpoint(); err != nil {
			tb.Fatal(err)
		}
	}
	holes, kept := s.NewOID(), s.NewOID()
	s.Ensure(holes, 2)
	s.Ensure(kept, 2)
	page := make([]byte, BlockSize)
	for pg := int64(0); pg < 1100; pg++ {
		for _, oid := range []OID{holes, kept} {
			if err := s.WritePage(oid, pg, page); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := s.Delete(holes); err != nil {
		tb.Fatal(err)
	}
	if p := s.AuditLive(); len(p) > 0 {
		tb.Fatalf("loaded store audits dirty: %q", p)
	}
	return s
}

// TestAuditAllocsBounded: an audit of a clean store allocates nothing,
// however many claims it checks — its working memory is kept on the store.
func TestAuditAllocsBounded(t *testing.T) {
	s := auditLoad(t)
	if s.objects.Len() < 1000 || len(s.deadlist) < 10000 || len(s.free) < 1000 {
		t.Fatalf("store holds %d objects, %d deadlist blocks and %d free runs, want at least 1 000, 10 000 and 1 000",
			s.objects.Len(), len(s.deadlist), len(s.free))
	}
	if n := testing.AllocsPerRun(20, func() { s.AuditLive() }); n != 0 {
		t.Fatalf("AuditLive allocated %.1f times per call over %d claims, want 0", n, len(s.audit.claims))
	}
}

// BenchmarkAuditLive audits auditLoad's store once per iteration.
func BenchmarkAuditLive(b *testing.B) {
	s := auditLoad(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := s.AuditLive(); len(p) > 0 {
			b.Fatal(p)
		}
	}
	b.ReportMetric(float64(len(s.audit.claims)), "claims/op")
}

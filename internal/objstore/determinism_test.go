package objstore

// Forensic report determinism: Fsck and AuditLive output feeds scenario
// assertions and result fingerprints, so problem ordering must be identical
// run to run and instance to instance — reports walk sorted OID/epoch keys,
// never raw map order. These tests corrupt several objects at once so a
// regression to map-order iteration has many orderings to land on.

import (
	"strings"
	"testing"
)

// buildDamagedStore creates a store with a spread of objects and journals,
// commits, then smashes several committed records and pages directly on the
// device — enough distinct problems that report ordering is observable.
func buildDamagedStore(t *testing.T) *Store {
	t.Helper()
	s, dev, _ := newStore(t)
	var oids []OID
	for i := 0; i < 12; i++ {
		oid := s.NewOID()
		oids = append(oids, oid)
		if i%4 == 3 {
			if _, err := s.CreateJournal(oid, 9, 64<<10); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := s.PutRecord(oid, 1, []byte(strings.Repeat("r", 40+i))); err != nil {
			t.Fatal(err)
		}
		s.Ensure(oid, 2)
		page := make([]byte, BlockSize)
		page[0] = byte(i)
		for pg := int64(0); pg < 4; pg++ {
			if err := s.WritePage(oid, pg, page); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	garbage := make([]byte, BlockSize)
	for i := range garbage {
		garbage[i] = 0x5A
	}
	// Corrupt records of three objects and a data page of two more, in an
	// order unrelated to OID order.
	for _, i := range []int{8, 1, 5} {
		s.mu.Lock()
		addr := s.get(oids[i]).recordAddr
		s.mu.Unlock()
		dev.PokeAt(garbage, addr)
	}
	for _, i := range []int{9, 2} {
		addr := pageAddr(t, s, oids[i], 1)
		dev.PokeAt(garbage, addr)
	}
	return s
}

func TestFsckAuditReportDeterminism(t *testing.T) {
	s := buildDamagedStore(t)

	rep1 := s.Fsck()
	rep2 := s.Fsck()
	if rep1.OK() {
		t.Fatal("damaged store fscks clean")
	}
	if len(rep1.Problems) < 5 {
		t.Fatalf("expected >= 5 problems, got %d: %v", len(rep1.Problems), rep1.Problems)
	}
	if got, want := strings.Join(rep2.Problems, "\n"), strings.Join(rep1.Problems, "\n"); got != want {
		t.Fatalf("same store, two fsck runs, different reports:\n--- run 1\n%s\n--- run 2\n%s", want, got)
	}
	a1 := strings.Join(s.AuditLive(), "\n")
	a2 := strings.Join(s.AuditLive(), "\n")
	if a1 != a2 {
		t.Fatalf("same store, two audit runs, different reports:\n--- run 1\n%s\n--- run 2\n%s", a1, a2)
	}

	// A separately-built identical store must render the identical report —
	// the cross-instance check map iteration order cannot survive.
	s2 := buildDamagedStore(t)
	rep3 := s2.Fsck()
	if got, want := strings.Join(rep3.Problems, "\n"), strings.Join(rep1.Problems, "\n"); got != want {
		t.Fatalf("identical stores, different fsck reports:\n--- store 1\n%s\n--- store 2\n%s", want, got)
	}
	if a3 := strings.Join(s2.AuditLive(), "\n"); a3 != a1 {
		t.Fatalf("identical stores, different audit reports:\n--- store 1\n%s\n--- store 2\n%s", a1, a3)
	}
}

package faultdev

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"aurora/internal/objstore"
)

// refWorkload exercises records, pages, truncation, deletion, journal
// appends, multiple checkpoints, and history release — every submit-path
// shape the store has — so the exhaustive sweep covers them all.
func refWorkload(ctl *Ctl) error {
	s := ctl.Store

	rec := s.NewOID()
	if err := s.PutRecord(rec, 1, []byte("alpha-v1")); err != nil {
		return err
	}
	paged := s.NewOID()
	s.Ensure(paged, 2)
	page := make([]byte, objstore.BlockSize)
	for pg := int64(0); pg < 3; pg++ {
		page[0] = byte(0x10 + pg)
		if err := s.WritePage(paged, pg, page); err != nil {
			return err
		}
	}
	if err := ctl.Commit(); err != nil {
		return err
	}

	joid := s.NewOID()
	j, err := s.CreateJournal(joid, 9, 64<<10)
	if err != nil {
		return err
	}
	if _, err := j.Append([]byte("wal-frame-1")); err != nil {
		return err
	}
	if err := s.PutRecord(rec, 1, []byte("alpha-v2, now a little longer")); err != nil {
		return err
	}
	doomed := s.NewOID()
	if err := s.PutRecord(doomed, 3, []byte("short-lived")); err != nil {
		return err
	}
	if err := ctl.Commit(); err != nil {
		return err
	}

	if _, err := j.Append([]byte("wal-frame-2")); err != nil {
		return err
	}
	page[0] = 0x77
	if err := s.WritePage(paged, 1, page); err != nil {
		return err
	}
	if err := s.Delete(doomed); err != nil {
		return err
	}
	if err := ctl.Commit(); err != nil {
		return err
	}

	// Drop the old history so the sweep crosses block reclamation too.
	s.ReleaseCheckpointsBefore(s.Epoch())
	return ctl.Commit()
}

// The tentpole assertion: crash at EVERY submit index of the reference
// workload, and recovery must always come back fsck-clean and
// byte-identical to a committed epoch.
func TestExhaustiveCrashSweepPrefix(t *testing.T) {
	h := &Harness{Seed: 1, Torn: true, Workload: refWorkload}
	rep := h.Explore(t)
	if rep.CrashPoints < 10 {
		t.Fatalf("sweep covered only %d crash points; workload too small to mean anything", rep.CrashPoints)
	}
	t.Logf("swept %d crash points over %d submits, %d commits", rep.CrashPoints, rep.TotalSubmits, rep.Commits)
}

func TestExhaustiveCrashSweepDropInFlight(t *testing.T) {
	h := &Harness{Seed: 1, Torn: true, DropInFlight: true, Workload: refWorkload}
	rep := h.Explore(t)
	if rep.CrashPoints < 10 {
		t.Fatalf("sweep covered only %d crash points", rep.CrashPoints)
	}
}

// walWorkload drives the WAL-first commit path through every phase the
// sweep must cover: delta appends (inline puts, page publishes, journal
// ops, deletes), a fold whose generation stays on disk until its
// superblock is durable, appends into the stale tail, a Fold that resets
// the head (log-structured GC), and a fresh generation reusing the
// reclaimed ring from offset zero.
func walWorkload(ctl *Ctl) error {
	s := ctl.Store

	// Phase 1: append-only chain on the formatted epoch.
	rec := s.NewOID()
	if err := s.PutRecord(rec, 1, []byte("wal-rec-v1")); err != nil {
		return err
	}
	if err := ctl.CommitWAL(); err != nil {
		return err
	}
	paged := s.NewOID()
	s.Ensure(paged, 2)
	page := make([]byte, objstore.BlockSize)
	for pg := int64(0); pg < 2; pg++ {
		page[0] = byte(0x20 + pg)
		if err := s.WritePage(paged, pg, page); err != nil {
			return err
		}
	}
	if err := ctl.CommitWAL(); err != nil {
		return err
	}
	joid := s.NewOID()
	j, err := s.CreateJournal(joid, 9, 32<<10)
	if err != nil {
		return err
	}
	if _, err := j.Append([]byte("journal-under-wal")); err != nil {
		return err
	}
	doomed := s.NewOID()
	if err := s.PutRecord(doomed, 3, []byte("doomed")); err != nil {
		return err
	}
	if err := ctl.CommitWAL(); err != nil {
		return err
	}

	// Phase 2: fold without a barrier — the dead generation must survive
	// on disk until the folding superblock is durable, and the next append
	// lands wherever the deferred reset says it may.
	if err := s.Delete(doomed); err != nil {
		return err
	}
	if err := ctl.Commit(); err != nil {
		return err
	}
	page[0] = 0x77
	if err := s.WritePage(paged, 1, page); err != nil {
		return err
	}
	if err := ctl.CommitWAL(); err != nil {
		return err
	}

	// Phase 3: explicit Fold — checkpoint, durability wait, head reset —
	// then a fresh generation reuses the ring from offset zero.
	if err := ctl.Fold(); err != nil {
		return err
	}
	if err := s.PutRecord(rec, 1, []byte("wal-rec-v2, after gc")); err != nil {
		return err
	}
	if _, err := j.Append([]byte("second-generation")); err != nil {
		return err
	}
	if err := ctl.CommitWAL(); err != nil {
		return err
	}
	return ctl.Commit()
}

// The WAL arm of the tentpole assertion: power-cut at EVERY submit index
// across append, fold, and GC phases; recovery must replay to a
// byte-identical (epoch, walSeq) golden with the flight timeline showing
// the cut in the right phase.
func TestExhaustiveCrashSweepWALPrefix(t *testing.T) {
	h := &Harness{Seed: 3, Torn: true, Workload: walWorkload}
	rep := h.Explore(t)
	if rep.CrashPoints < 10 {
		t.Fatalf("sweep covered only %d crash points; workload too small to mean anything", rep.CrashPoints)
	}
	t.Logf("swept %d crash points over %d submits, %d commits", rep.CrashPoints, rep.TotalSubmits, rep.Commits)
}

func TestExhaustiveCrashSweepWALDropInFlight(t *testing.T) {
	h := &Harness{Seed: 3, Torn: true, DropInFlight: true, Workload: walWorkload}
	rep := h.Explore(t)
	if rep.CrashPoints < 10 {
		t.Fatalf("sweep covered only %d crash points", rep.CrashPoints)
	}
}

// randomWorkload builds a deterministic pseudo-random op sequence from a
// seed. The PRNG is re-created on every call, so the harness can replay
// the identical sequence for every crash index.
func randomWorkload(seed int64) Workload {
	return func(ctl *Ctl) error {
		rng := rand.New(rand.NewSource(seed))
		s := ctl.Store
		var oids []objstore.OID
		var journals []*objstore.Journal
		page := make([]byte, objstore.BlockSize)
		for op := 0; op < 40; op++ {
			switch rng.Intn(10) {
			case 0, 1: // record write (new or existing object)
				var oid objstore.OID
				if len(oids) > 0 && rng.Intn(2) == 0 {
					oid = oids[rng.Intn(len(oids))]
				} else {
					oid = s.NewOID()
					oids = append(oids, oid)
				}
				body := make([]byte, rng.Intn(2*objstore.BlockSize))
				rng.Read(body)
				if err := s.PutRecord(oid, 1, body); err != nil {
					return err
				}
			case 2, 3, 4: // page write
				oid := s.NewOID()
				if len(oids) > 0 && rng.Intn(3) > 0 {
					oid = oids[rng.Intn(len(oids))]
				} else {
					oids = append(oids, oid)
				}
				s.Ensure(oid, 2)
				rng.Read(page)
				if err := s.WritePage(oid, int64(rng.Intn(16)), page); err != nil {
					return err
				}
			case 5: // journal create + append
				j, err := s.CreateJournal(s.NewOID(), 9, 32<<10)
				if err != nil {
					return err
				}
				journals = append(journals, j)
				fallthrough
			case 6: // journal append
				if len(journals) == 0 {
					continue
				}
				j := journals[rng.Intn(len(journals))]
				frame := make([]byte, 1+rng.Intn(512))
				rng.Read(frame)
				if _, err := j.Append(frame); err != nil {
					return err
				}
			case 7: // delete
				if len(oids) == 0 {
					continue
				}
				i := rng.Intn(len(oids))
				if err := s.Delete(oids[i]); err != nil {
					return err
				}
				oids = append(oids[:i], oids[i+1:]...)
			case 8: // commit
				if err := ctl.Commit(); err != nil {
					return err
				}
			case 9: // release history
				s.ReleaseCheckpointsBefore(s.Epoch())
			}
		}
		return ctl.Commit()
	}
}

// TestCrashMatrix sweeps randomized workloads over a bounded seed set, in
// both fault models. CI widens the set via AURORA_CRASH_SEEDS (comma-
// separated); locally it defaults to a couple of seeds so `go test` stays
// fast. Page writes inside WritePage use record-object deletion and
// journal interleaving the reference workload cannot reach.
func TestCrashMatrix(t *testing.T) {
	for _, seed := range crashSeeds(t) {
		for _, drop := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/drop=%v", seed, drop), func(t *testing.T) {
				h := &Harness{
					Seed:         seed,
					Torn:         true,
					DropInFlight: drop,
					Workload:     randomWorkload(seed),
				}
				rep := h.Explore(t)
				if rep.Failures == 0 {
					t.Logf("seed %d drop=%v: %d crash points clean", seed, drop, rep.CrashPoints)
				}
			})
		}
	}
}

// crashSeeds returns the seed set for matrix sweeps. CI widens it via
// AURORA_CRASH_SEEDS (comma-separated); locally it defaults to a couple of
// seeds so `go test` stays fast.
func crashSeeds(t *testing.T) []int64 {
	seeds := []int64{1, 7}
	if env := os.Getenv("AURORA_CRASH_SEEDS"); env != "" {
		seeds = nil
		for _, f := range strings.Split(env, ",") {
			n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
			if err != nil {
				t.Fatalf("AURORA_CRASH_SEEDS: %v", err)
			}
			seeds = append(seeds, n)
		}
	}
	if testing.Short() {
		seeds = seeds[:1]
	}
	return seeds
}

// walRandomWorkload interleaves WAL commits, folds, and mutations under a
// seeded PRNG, reaching append/fold orderings the reference WAL workload
// cannot: back-to-back folds, empty frames, deletes framed between
// generations. A full ring falls back to fold-and-retry, deterministically.
func walRandomWorkload(seed int64) Workload {
	return func(ctl *Ctl) error {
		rng := rand.New(rand.NewSource(seed))
		s := ctl.Store
		var oids []objstore.OID
		page := make([]byte, objstore.BlockSize)
		commitWAL := func() error {
			err := ctl.CommitWAL()
			if errors.Is(err, objstore.ErrWALFull) {
				if err := ctl.Fold(); err != nil {
					return err
				}
				return ctl.CommitWAL()
			}
			return err
		}
		for op := 0; op < 32; op++ {
			switch rng.Intn(8) {
			case 0, 1: // record write (new or existing object)
				var oid objstore.OID
				if len(oids) > 0 && rng.Intn(2) == 0 {
					oid = oids[rng.Intn(len(oids))]
				} else {
					oid = s.NewOID()
					oids = append(oids, oid)
				}
				body := make([]byte, rng.Intn(2*objstore.BlockSize))
				rng.Read(body)
				if err := s.PutRecord(oid, 1, body); err != nil {
					return err
				}
			case 2, 3: // page write
				oid := s.NewOID()
				if len(oids) > 0 && rng.Intn(3) > 0 {
					oid = oids[rng.Intn(len(oids))]
				} else {
					oids = append(oids, oid)
				}
				s.Ensure(oid, 2)
				rng.Read(page)
				if err := s.WritePage(oid, int64(rng.Intn(8)), page); err != nil {
					return err
				}
			case 4: // delete
				if len(oids) == 0 {
					continue
				}
				i := rng.Intn(len(oids))
				if err := s.Delete(oids[i]); err != nil {
					return err
				}
				oids = append(oids[:i], oids[i+1:]...)
			case 5, 6: // WAL commit (fold-and-retry when the ring is full)
				if err := commitWAL(); err != nil {
					return err
				}
			case 7: // fold + GC
				if err := ctl.Fold(); err != nil {
					return err
				}
			}
		}
		return ctl.Commit()
	}
}

// TestCrashMatrixWAL sweeps the randomized WAL workloads over the same
// seed set and both fault models as TestCrashMatrix.
func TestCrashMatrixWAL(t *testing.T) {
	for _, seed := range crashSeeds(t) {
		for _, drop := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/drop=%v", seed, drop), func(t *testing.T) {
				h := &Harness{
					Seed:         seed,
					Torn:         true,
					DropInFlight: drop,
					Workload:     walRandomWorkload(seed),
				}
				rep := h.Explore(t)
				if rep.Failures == 0 {
					t.Logf("seed %d drop=%v: %d crash points clean", seed, drop, rep.CrashPoints)
				}
			})
		}
	}
}

// Replay must reproduce what Explore explores: a targeted replay of a
// known-good index passes, keyed only by (seed, index).
func TestReplaySingleIndex(t *testing.T) {
	h := &Harness{Seed: 1, Torn: true, Workload: refWorkload}
	h.Replay(t, 10)
}

package objstore

import (
	"fmt"
	"testing"

	"aurora/internal/trace"
)

// rewrite dirties n pages of oid, a different window each round.
func rewrite(t *testing.T, s *Store, oid OID, round, n int) {
	t.Helper()
	page := make([]byte, BlockSize)
	for i := 0; i < n; i++ {
		page[0], page[1] = byte(round), byte(i)
		if err := s.WritePage(oid, int64((round*n+i*5)%512), page); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCommitSpanTiling: the commit span's children meta, release, index and
// super follow one another without gap or overlap and sum to it exactly, and
// the release child says what the commit dropped — why an index shrank is
// answerable from one trace.
func TestCommitSpanTiling(t *testing.T) {
	s, _, clk := newStore(t)
	tr := trace.New(clk)
	s.SetTracer(tr)
	oid := s.NewOID()
	s.Ensure(oid, 2)
	for round := 0; round < 5; round++ {
		rewrite(t, s, oid, round, 32)
		if _, err := s.CheckpointRetaining(2); err != nil {
			t.Fatal(err)
		}
		if err := s.WaitDurable(s.Epoch()); err != nil {
			t.Fatal(err)
		}
	}
	kids := make(map[uint64][]trace.Event)
	var commits []trace.Event
	for _, e := range tr.Events() {
		if e.Kind != trace.KindSpan || e.Track != trace.TrackObjstore {
			continue
		}
		if e.Name == "commit" {
			commits = append(commits, e)
		} else if e.Parent != 0 {
			kids[e.Parent] = append(kids[e.Parent], e)
		}
	}
	if len(commits) != 5 {
		t.Fatalf("%d commit spans, want 5", len(commits))
	}
	var dropped, blocks int64
	for _, c := range commits {
		at := c.Start
		for i, name := range []string{"meta", "release", "index", "super"} {
			k := kids[c.ID]
			if len(k) != 4 || k[i].Name != name || k[i].Start != at {
				t.Fatalf("commit %d: child %d of %+v, want %q starting at %v", c.ID, i, k, name, at)
			}
			at += k[i].Dur
		}
		if at != c.Start+c.Dur {
			t.Fatalf("commit %d: children end at %v, the commit at %v", c.ID, at, c.Start+c.Dur)
		}
		args := make(map[string]int64)
		for _, a := range kids[c.ID][1].Args {
			args[a.Key] = a.Int
		}
		if args["index_runs"] != args["epochs"] {
			t.Fatalf("commit %d dropped %d epochs but staged %d index runs", c.ID, args["epochs"], args["index_runs"])
		}
		dropped += args["epochs"]
		blocks += args["data_blocks"]
	}
	// The format epoch plus five were committed and two are retained: the
	// release children account for the rest, and for the blocks it held.
	if want := int64(s.Epoch()) - 2; dropped != want || blocks == 0 {
		t.Fatalf("release spans report %d epochs dropped (want %d), %d data blocks staged", dropped, want, blocks)
	}
}

// TestRetentionInsideCommit: the index a commit writes is already the
// trimmed one, and what the commit released is free in that index yet out of
// the allocator's reach until the commit's superblock is durable. The epoch
// committed before always stays (a failed commit falls back to it), so a
// bound of 1 keeps 2; and the bound belongs to the commit that passes it, so
// a plain Checkpoint afterwards trims nothing.
func TestRetentionInsideCommit(t *testing.T) {
	for _, tc := range []struct{ retain, keep int }{{1, 2}, {3, 3}} {
		t.Run(fmt.Sprintf("retain=%d", tc.retain), func(t *testing.T) {
			testRetentionInsideCommit(t, tc.retain, tc.keep)
		})
	}
}

func testRetentionInsideCommit(t *testing.T, retain, keep int) {
	s, _, _ := newStore(t)
	oid := s.NewOID()
	s.Ensure(oid, 2)
	for round := 0; round < 8; round++ {
		rewrite(t, s, oid, round, 32)
		st, err := s.CheckpointRetaining(retain)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.RetainedCheckpoints(); len(got) > keep || got[len(got)-1] != st.Epoch {
			t.Fatalf("epoch %d: retained %v, want at most %d ending in it", st.Epoch, got, keep)
		}
		s.mu.Lock()
		last := s.retained[len(s.retained)-1]
		idx, err := s.fetchIndex(last.indexAddr, last.indexLen)
		var staged []int64
		if n := len(s.releaseQ); n > 0 && s.releaseQ[n-1].at == st.DurableAt {
			staged = s.releaseQ[n-1].data
		}
		s.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if len(idx.retained) > keep-1 {
			t.Fatalf("epoch %d: its own index still lists %d older epochs", st.Epoch, len(idx.retained))
		}
		if int(st.Epoch) > keep+1 && len(staged) == 0 {
			t.Fatalf("epoch %d released nothing", st.Epoch)
		}
		free := make(map[int64]bool)
		for _, a := range idx.freelist {
			free[a] = true
		}
		for _, a := range staged {
			if !free[a] {
				t.Fatalf("epoch %d: released block %#x is not free in the index that dropped its history", st.Epoch, a)
			}
		}
		// Allocate before the superblock is durable: nothing staged may be
		// handed out, or a cut now would recover the previous index over
		// overwritten history.
		rewrite(t, s, oid, round+100, 32)
		live := make(map[int64]bool)
		for _, a := range s.LivePageAddrs() {
			live[a] = true
		}
		for _, a := range staged {
			if live[a] {
				t.Fatalf("epoch %d: block %#x released by the commit was reallocated before its superblock was durable", st.Epoch, a)
			}
		}
		if err := s.WaitDurable(st.Epoch); err != nil {
			t.Fatal(err)
		}
		if len(staged) > 0 && s.FreeBlocks() < len(staged) {
			t.Fatalf("epoch %d: %d blocks released, only %d free once durable", st.Epoch, len(staged), s.FreeBlocks())
		}
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := s.RetainedCheckpoints(); len(got) != keep+1 {
		t.Fatalf("a commit without a bound trimmed: retained %v after %d", got, keep)
	}
	if rep := s.Fsck(); !rep.OK() {
		t.Fatal(rep.Problems)
	}
	if probs := s.AuditLive(); len(probs) > 0 {
		t.Fatal(probs)
	}
}

// TestOneCommitPerBootConverges: a store that commits once and is reopened —
// the crash-restore chain — keeps its retained list, deadlist and index
// length flat. (When the trim followed the commit it was made durable only
// by the next commit, and with one commit per boot never was.)
func TestOneCommitPerBootConverges(t *testing.T) {
	s, dev, clk := newStore(t)
	oid := s.NewOID()
	s.Ensure(oid, 2)
	rewrite(t, s, oid, 0, 512) // every page exists, so every rewrite retires a block
	var idxLen, dead []int64
	for boot := 0; boot < 14; boot++ {
		rewrite(t, s, oid, boot, 64)
		if _, err := s.CheckpointRetaining(4); err != nil {
			t.Fatal(err)
		}
		if err := s.WaitDurable(s.Epoch()); err != nil {
			t.Fatal(err)
		}
		s = reopen(t, dev, clk)
		if got := s.RetainedCheckpoints(); len(got) > 4 {
			t.Fatalf("boot %d: recovered %d retained epochs: %v", boot, len(got), got)
		}
		idxLen = append(idxLen, s.retained[len(s.retained)-1].indexLen)
		dead = append(dead, int64(s.DeadBlocks()))
	}
	for name, series := range map[string][]int64{"index length": idxLen, "deadlist": dead} {
		for _, v := range series[6:] {
			if d := v - series[6]; d*10 > series[6] || -d*10 > series[6] {
				t.Fatalf("%s not flat along the chain: %v", name, series)
			}
		}
	}
	if rep := s.Fsck(); !rep.OK() {
		t.Fatal(rep.Problems)
	}
}

package radix

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestTableMatchesMapOracle drives the page table with random set, get, del
// and walks, checking every answer against a map. Keys cluster around
// leaf (64) and directory (4 096) boundaries, spread over a sparse range and
// go negative, so leaves and directories are created, emptied and dropped all
// the time.
func TestTableMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tb Table[int]
		oracle := make(map[int64]int)
		key := func() int64 {
			switch rng.Intn(4) {
			case 0:
				return rng.Int63n(200) - 100 // around zero, both signs
			case 1:
				return int64(rng.Intn(40))*LeafSize + rng.Int63n(3) - 1 // leaf edges
			case 2:
				return int64(rng.Intn(8))<<dirBits + rng.Int63n(3) - 1 // directory edges
			default:
				return rng.Int63n(1 << 40) // sparse
			}
		}
		for step := 0; step < 4000; step++ {
			k := key()
			switch op := rng.Intn(1000); {
			case op < 500:
				v := rng.Int()
				old, had := tb.Set(k, v)
				want, wantHad := oracle[k]
				if had != wantHad || old != want {
					t.Fatalf("seed %d step %d: Set(%d) replaced (%d, %v), oracle (%d, %v)", seed, step, k, old, had, want, wantHad)
				}
				oracle[k] = v
			case op < 800:
				v, ok := tb.Del(k)
				want, wantOK := oracle[k]
				if ok != wantOK || v != want {
					t.Fatalf("seed %d step %d: Del(%d) = (%d, %v), oracle (%d, %v)", seed, step, k, v, ok, want, wantOK)
				}
				delete(oracle, k)
			default:
				v, ok := tb.Get(k)
				want, wantOK := oracle[k]
				if ok != wantOK || v != want {
					t.Fatalf("seed %d step %d: Get(%d) = (%d, %v), oracle (%d, %v)", seed, step, k, v, ok, want, wantOK)
				}
				if p := tb.Ptr(k); (p != nil) != wantOK || p != nil && *p != want {
					t.Fatalf("seed %d step %d: Ptr(%d) disagrees with the oracle", seed, step, k)
				}
			}
			if tb.Len() != len(oracle) {
				t.Fatalf("seed %d step %d: len %d, oracle %d", seed, step, tb.Len(), len(oracle))
			}
			if step%200 == 0 {
				checkWalks(t, &tb, oracle)
			}
		}
		checkWalks(t, &tb, oracle)
	}
}

// checkWalks: All visits exactly the oracle's keys, strictly ascending, with
// their values, and so does a walk by LeafFrom. So do two walks of a copy
// that delete as they go, one every key it is given and one every other key,
// and afterwards the copy holds exactly what they left.
func checkWalks(t *testing.T, tb *Table[int], oracle map[int64]int) {
	t.Helper()
	want := slices.Sorted(maps.Keys(oracle))
	var got []int64
	for k, v := range tb.All() {
		if n := len(got); n > 0 && k <= got[n-1] {
			t.Fatalf("All visited %d after %d", k, got[n-1])
		}
		if v != oracle[k] {
			t.Fatalf("All gave %d at %d, oracle %d", v, k, oracle[k])
		}
		got = append(got, k)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("All visited %d keys, oracle holds %d", len(got), len(want))
	}
	var walked []int64
	from := int64(-1 << 62)
	for {
		base, l := tb.LeafFrom(from)
		if l == nil {
			break
		}
		if l.Used == 0 {
			t.Fatalf("LeafFrom(%d) returned an empty leaf", from)
		}
		for i := int64(0); i < LeafSize; i++ {
			if l.Used&(1<<i) != 0 {
				walked = append(walked, base+i)
			}
		}
		from = base + LeafSize
	}
	if !slices.Equal(walked, want) {
		t.Fatalf("a LeafFrom walk visited %d keys, oracle holds %d", len(walked), len(want))
	}
	for _, every := range []int{1, 2} {
		var cp Table[int]
		for k, v := range oracle {
			cp.Set(k, v)
		}
		var visited, kept []int64
		for k, v := range cp.All() {
			if v != oracle[k] {
				t.Fatalf("deleting every %d: All gave %d at %d, oracle %d", every, v, k, oracle[k])
			}
			if len(visited)%every == 0 {
				cp.Del(k)
			} else {
				kept = append(kept, k)
			}
			visited = append(visited, k)
		}
		var left []int64
		for k := range cp.All() {
			left = append(left, k)
		}
		if !slices.Equal(visited, want) || !slices.Equal(left, kept) || cp.Len() != len(kept) {
			t.Fatalf("deleting every %d: visited %d keys of %d, %d left of %d kept (Len %d)",
				every, len(visited), len(want), len(left), len(kept), cp.Len())
		}
	}
}

// TestNilTableReadsEmpty: a nil *Table answers every read as an empty one
// does, as a nil map does.
func TestNilTableReadsEmpty(t *testing.T) {
	var tb *Table[int]
	if _, ok := tb.Get(3); ok || tb.Ptr(3) != nil || tb.Len() != 0 {
		t.Fatal("a nil table holds a value")
	}
	if _, ok := tb.Del(3); ok {
		t.Fatal("a nil table deleted a value")
	}
	if _, l := tb.LeafFrom(0); l != nil {
		t.Fatal("a nil table has a leaf")
	}
	for k := range tb.All() {
		t.Fatalf("a nil table yielded %d", k)
	}
}

// TestAllStopsAtBreak: a loop over All that breaks is not called again, and
// the walk reaches keys at both ends of the int64 range.
func TestAllStopsAtBreak(t *testing.T) {
	var tb Table[int]
	keys := []int64{math.MinInt64, -1, 0, 1, LeafSize, math.MaxInt64}
	for _, k := range keys {
		tb.Set(k, 1)
	}
	var got []int64
	for k := range tb.All() {
		got = append(got, k)
	}
	if !slices.Equal(got, keys) {
		t.Fatalf("All visited %v, want %v", got, keys)
	}
	got = got[:0]
	for k := range tb.All() {
		if got = append(got, k); len(got) == 3 {
			break
		}
	}
	if !slices.Equal(got, keys[:3]) {
		t.Fatalf("a walk broken after three keys visited %v", got)
	}
}

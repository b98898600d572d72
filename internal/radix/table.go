// Package radix is the one page index of the system: the VM's resident
// pages and PTEs, the object store's block map and the device's sparse
// backing all key their pages by number in a Table.
package radix

import (
	"cmp"
	"iter"
	"math"
	"math/bits"
	"slices"
)

// Table is a radix table, as FreeBSD's vm_radix and a real pmap are: 64-slot
// leaves with an occupancy bitmap, 64 leaves to a directory, and a sparse
// top level of directories kept in key order. Each level exists only where
// something is stored, so memory follows occupancy, not the highest index;
// walking the bitmaps visits what is set in ascending order, so the
// deterministic order a flush, a commit and an auditor need falls out of the
// structure. The zero table is empty and ready to use, and a nil *Table
// reads as empty, as a nil map does. It is not synchronized: its owner's
// lock guards it.
type Table[T any] struct {
	dirs []*tableDir[T] // ascending key
	n    int
}

const (
	leafBits = 6
	LeafSize = 1 << leafBits       // slots per leaf
	dirBits  = leafBits + leafBits // indexes per directory: 4 096
)

// Leaf is one run of LeafSize indexes, the first a multiple of LeafSize.
type Leaf[T any] struct {
	Used  uint64 // bit i: Slots[i] holds a value
	Slots [LeafSize]T
}

type tableDir[T any] struct {
	key    int64  // index >> dirBits
	used   uint64 // bit i: leaves[i] is allocated
	leaves [LeafSize]*Leaf[T]
}

// dir finds the directory holding index k: its position in t.dirs, and
// whether it exists (if not, the position it would take).
func (t *Table[T]) dir(k int64) (int, bool) {
	if t == nil {
		return 0, false
	}
	key := k >> dirBits
	if len(t.dirs) > 0 {
		// Stored ranges are mostly contiguous: try the position a dense
		// run of directories would put key at before searching.
		if i := key - t.dirs[0].key; i >= 0 && i < int64(len(t.dirs)) && t.dirs[i].key == key {
			return int(i), true
		}
	}
	return slices.BinarySearchFunc(t.dirs, key, func(d *tableDir[T], key int64) int {
		return cmp.Compare(d.key, key)
	})
}

// Len returns how many indexes hold a value.
func (t *Table[T]) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Ptr returns the slot holding k's value, nil if k holds none. The pointer
// is good until k is deleted.
func (t *Table[T]) Ptr(k int64) *T {
	i, ok := t.dir(k)
	if !ok {
		return nil
	}
	if l := t.dirs[i].leaves[k>>leafBits&(LeafSize-1)]; l != nil && l.Used&(1<<(k&(LeafSize-1))) != 0 {
		return &l.Slots[k&(LeafSize-1)]
	}
	return nil
}

// Get returns the value at k.
func (t *Table[T]) Get(k int64) (v T, ok bool) {
	if p := t.Ptr(k); p != nil {
		return *p, true
	}
	return v, false
}

// Set stores v at k, returning the value it replaced, if any.
func (t *Table[T]) Set(k int64, v T) (old T, had bool) {
	i, ok := t.dir(k)
	if !ok {
		t.dirs = slices.Insert(t.dirs, i, &tableDir[T]{key: k >> dirBits})
	}
	d := t.dirs[i]
	li := k >> leafBits & (LeafSize - 1)
	l := d.leaves[li]
	if l == nil {
		l = new(Leaf[T])
		d.leaves[li] = l
		d.used |= 1 << li
	}
	bit := uint64(1) << (k & (LeafSize - 1))
	slot := &l.Slots[k&(LeafSize-1)]
	if l.Used&bit != 0 {
		old, had = *slot, true
	} else {
		l.Used |= bit
		t.n++
	}
	*slot = v
	return old, had
}

// Del removes k's value and returns it. A leaf that empties is dropped, and
// so is a directory.
func (t *Table[T]) Del(k int64) (v T, ok bool) {
	i, found := t.dir(k)
	if !found {
		return v, false
	}
	d := t.dirs[i]
	li := k >> leafBits & (LeafSize - 1)
	l := d.leaves[li]
	bit := uint64(1) << (k & (LeafSize - 1))
	if l == nil || l.Used&bit == 0 {
		return v, false
	}
	var zero T
	slot := &l.Slots[k&(LeafSize-1)]
	v, *slot = *slot, zero // the leaf must not keep what it no longer holds alive
	l.Used &^= bit
	t.n--
	if l.Used == 0 {
		d.leaves[li] = nil
		if d.used &^= 1 << li; d.used == 0 {
			t.dirs = slices.Delete(t.dirs, i, i+1)
		}
	}
	return v, true
}

// All yields every index and its value in ascending index order, walking
// leaf by leaf through LeafFrom. The loop body may delete the index it was
// given, and must not change the table otherwise.
func (t *Table[T]) All() iter.Seq2[int64, T] {
	return func(yield func(int64, T) bool) {
		for base, l := t.LeafFrom(math.MinInt64); l != nil; base, l = t.LeafFrom(base + LeafSize) {
			for s := l.Used; s != 0; s &= s - 1 {
				i := bits.TrailingZeros64(s)
				if !yield(base+int64(i), l.Slots[i]) {
					return
				}
			}
			if base == math.MaxInt64&^(LeafSize-1) {
				return // no leaf starts above this one
			}
		}
	}
}

// LeafFrom returns the first leaf whose indexes are all at or above from,
// with its first index: where a walk that let go of the table's lock
// resumes. from must be a multiple of LeafSize.
func (t *Table[T]) LeafFrom(from int64) (int64, *Leaf[T]) {
	if t == nil {
		return 0, nil
	}
	i, ok := t.dir(from)
	var first uint // leaves below it in dirs[i] are behind the walk
	if ok {
		first = uint(from >> leafBits & (LeafSize - 1))
	}
	for ; i < len(t.dirs); i, first = i+1, 0 {
		d := t.dirs[i]
		if ls := d.used >> first << first; ls != 0 {
			li := bits.TrailingZeros64(ls)
			return d.key<<dirBits | int64(li)<<leafBits, d.leaves[li]
		}
	}
	return 0, nil
}

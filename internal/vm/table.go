package vm

import (
	"cmp"
	"math/bits"
	"slices"
)

// table is the page index both halves of the VM keep: an object's resident
// pages by page number, and an entry's PTEs by page within the entry. It is
// a radix table, as FreeBSD's vm_radix and a real pmap are: 64-slot leaves
// with an occupancy bitmap, 64 leaves to a directory, and a sparse top level
// of directories kept in key order. Each level exists only where something
// is resident, so memory follows residency, not the highest index; walking
// the bitmaps visits what is set in ascending order, so the deterministic
// order the flush and the auditor need falls out of the structure. The zero
// table is empty and ready to use. It is not synchronized: its owner's lock
// guards it.
type table[T any] struct {
	dirs []*tableDir[T] // ascending key
	n    int
}

const (
	leafBits = 6
	leafSize = 1 << leafBits       // slots per leaf
	dirBits  = leafBits + leafBits // indexes per directory: 4 096
)

type tableLeaf[T any] struct {
	used  uint64 // bit i: slots[i] holds a value
	slots [leafSize]T
}

type tableDir[T any] struct {
	key    int64  // index >> dirBits
	used   uint64 // bit i: leaves[i] is allocated
	leaves [leafSize]*tableLeaf[T]
}

// dir finds the directory holding index k: its position in t.dirs, and
// whether it exists (if not, the position it would take).
func (t *table[T]) dir(k int64) (int, bool) {
	key := k >> dirBits
	if len(t.dirs) > 0 {
		// Resident ranges are mostly contiguous: try the position a dense
		// run of directories would put key at before searching.
		if i := key - t.dirs[0].key; i >= 0 && i < int64(len(t.dirs)) && t.dirs[i].key == key {
			return int(i), true
		}
	}
	return slices.BinarySearchFunc(t.dirs, key, func(d *tableDir[T], key int64) int {
		return cmp.Compare(d.key, key)
	})
}

// len returns how many indexes hold a value.
func (t *table[T]) len() int { return t.n }

// ptr returns the slot holding k's value, nil if k holds none. The pointer
// is good until k is deleted.
func (t *table[T]) ptr(k int64) *T {
	i, ok := t.dir(k)
	if !ok {
		return nil
	}
	if l := t.dirs[i].leaves[k>>leafBits&(leafSize-1)]; l != nil && l.used&(1<<(k&(leafSize-1))) != 0 {
		return &l.slots[k&(leafSize-1)]
	}
	return nil
}

// get returns the value at k.
func (t *table[T]) get(k int64) (v T, ok bool) {
	if p := t.ptr(k); p != nil {
		return *p, true
	}
	return v, false
}

// set stores v at k, returning the value it replaced, if any.
func (t *table[T]) set(k int64, v T) (old T, had bool) {
	i, ok := t.dir(k)
	if !ok {
		t.dirs = slices.Insert(t.dirs, i, &tableDir[T]{key: k >> dirBits})
	}
	d := t.dirs[i]
	li := k >> leafBits & (leafSize - 1)
	l := d.leaves[li]
	if l == nil {
		l = new(tableLeaf[T])
		d.leaves[li] = l
		d.used |= 1 << li
	}
	bit := uint64(1) << (k & (leafSize - 1))
	slot := &l.slots[k&(leafSize-1)]
	if l.used&bit != 0 {
		old, had = *slot, true
	} else {
		l.used |= bit
		t.n++
	}
	*slot = v
	return old, had
}

// del removes k's value and returns it. A leaf that empties is dropped, and
// so is a directory.
func (t *table[T]) del(k int64) (v T, ok bool) {
	i, found := t.dir(k)
	if !found {
		return v, false
	}
	d := t.dirs[i]
	li := k >> leafBits & (leafSize - 1)
	l := d.leaves[li]
	bit := uint64(1) << (k & (leafSize - 1))
	if l == nil || l.used&bit == 0 {
		return v, false
	}
	var zero T
	slot := &l.slots[k&(leafSize-1)]
	v, *slot = *slot, zero // the leaf must not keep what it no longer holds alive
	l.used &^= bit
	t.n--
	if l.used == 0 {
		d.leaves[li] = nil
		if d.used &^= 1 << li; d.used == 0 {
			t.dirs = slices.Delete(t.dirs, i, i+1)
		}
	}
	return v, true
}

// each calls fn for every value in ascending index order. fn must not
// change the table.
func (t *table[T]) each(fn func(k int64, v T)) {
	for _, d := range t.dirs {
		for ls := d.used; ls != 0; ls &= ls - 1 {
			li := bits.TrailingZeros64(ls)
			l := d.leaves[li]
			base := d.key<<dirBits | int64(li)<<leafBits
			for s := l.used; s != 0; s &= s - 1 {
				i := bits.TrailingZeros64(s)
				fn(base|int64(i), l.slots[i])
			}
		}
	}
}

// leafFrom returns the first leaf whose indexes are all at or above from,
// with its first index: where a walk that let go of the table's lock
// resumes. from must be a multiple of the leaf size.
func (t *table[T]) leafFrom(from int64) (int64, *tableLeaf[T]) {
	i, ok := t.dir(from)
	var first uint // leaves below it in dirs[i] are behind the walk
	if ok {
		first = uint(from >> leafBits & (leafSize - 1))
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

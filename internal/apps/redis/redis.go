// Package redis implements the Redis-like key-value store used in the
// paper's CRIU comparison (Tables 1 and 7): an in-memory store whose entire
// state lives in simulated process memory, plus the fork-based RDB save
// mechanism (BGSAVE) Aurora is compared against.
//
// All key/value data is stored inside the process's simulated address space
// as an append-only record arena; the Go-side index is only a cache and can
// be rebuilt by scanning the arena — which is exactly what happens after an
// Aurora restore.
package redis

import (
	"encoding/binary"
	"fmt"
	"time"

	"aurora/internal/clock"
	"aurora/internal/kern"
	"aurora/internal/vm"
)

// recHeader is [keyLen u32][valLen u32][tombstone u8] before key+val bytes.
const recHeader = 9

// Redis is one store instance backed by a simulated process.
type Redis struct {
	Proc *kern.Proc

	arena    uint64 // base of the mmap'd record arena
	arenaLen int64
	tail     int64 // append offset, also stored at arena[0:8]

	index map[string]entry // cache over the arena
}

type entry struct {
	off    int64 // record offset in the arena
	valLen int
}

// headerBytes reserves space at the arena base for the tail pointer.
const headerBytes = 4096

// New creates a Redis instance with the given arena capacity, as a process
// in the kernel.
func New(k *kern.Kernel, arenaBytes int64) (*Redis, error) {
	p := k.NewProc("redis")
	return NewOnProc(p, arenaBytes)
}

// NewOnProc builds the store in an existing process.
func NewOnProc(p *kern.Proc, arenaBytes int64) (*Redis, error) {
	va, err := p.Mmap(arenaBytes+headerBytes, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		return nil, err
	}
	r := &Redis{
		Proc:     p,
		arena:    va,
		arenaLen: arenaBytes,
		index:    make(map[string]entry),
	}
	if err := r.storeTail(0); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Redis) storeTail(tail int64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(tail))
	if err := r.Proc.WriteMem(r.arena, b[:]); err != nil {
		return err
	}
	r.tail = tail
	return nil
}

// Set stores a key/value pair. The bytes land in simulated memory.
func (r *Redis) Set(key string, val []byte) error {
	need := int64(recHeader + len(key) + len(val))
	if r.tail+need > r.arenaLen {
		if err := r.compact(); err != nil {
			return err
		}
		if r.tail+need > r.arenaLen {
			return fmt.Errorf("redis: arena full (%d of %d used)", r.tail, r.arenaLen)
		}
	}
	buf := make([]byte, need)
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(key)))
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(val)))
	buf[8] = 0
	copy(buf[recHeader:], key)
	copy(buf[recHeader+len(key):], val)
	off := r.tail
	if err := r.Proc.WriteMem(r.recAddr(off), buf); err != nil {
		return err
	}
	if err := r.storeTail(off + need); err != nil {
		return err
	}
	r.index[key] = entry{off: off, valLen: len(val)}
	return nil
}

// recAddr converts an arena offset to a virtual address.
func (r *Redis) recAddr(off int64) uint64 { return r.arena + headerBytes + uint64(off) }

// Get fetches a value from simulated memory.
func (r *Redis) Get(key string) ([]byte, bool, error) {
	ent, ok := r.index[key]
	if !ok {
		return nil, false, nil
	}
	val := make([]byte, ent.valLen)
	addr := r.recAddr(ent.off) + recHeader + uint64(len(key))
	if err := r.Proc.ReadMem(addr, val); err != nil {
		return nil, false, err
	}
	return val, true, nil
}

// compact rewrites live records to the front of the arena.
func (r *Redis) compact() error {
	keys := make([]string, 0, len(r.index))
	for k := range r.index {
		keys = append(keys, k)
	}
	type kv struct {
		k string
		v []byte
	}
	recs := make([]kv, 0, len(keys))
	for _, k := range keys {
		v, ok, err := r.Get(k)
		if err != nil {
			return err
		}
		if ok {
			recs = append(recs, kv{k, v})
		}
	}
	r.index = make(map[string]entry, len(recs))
	if err := r.storeTail(0); err != nil {
		return err
	}
	for _, rec := range recs {
		if err := r.Set(rec.k, rec.v); err != nil {
			return err
		}
	}
	return nil
}

// RDBStats reports a fork-based save, Table 7's RDB column.
type RDBStats struct {
	StopTime  time.Duration // fork duration (the parent is blocked)
	SaveTime  time.Duration // child serialization + write
	Keys      int
	ImageSize int64
}

// BGSave performs Redis's RDB persistence: fork the process and serialize
// the key space from the child while the parent continues. The returned
// stats separate the fork stop from the save. The image streams to the
// device (queued writes, not per-command sync latency); the overall save
// rate is bounded by RDB's serialization bandwidth.
func (r *Redis) BGSave(dev interface {
	SubmitWrite(p []byte, off int64) (time.Duration, error)
}) (RDBStats, error) {
	var st RDBStats
	k := r.Proc.Kernel()
	sw := clock.StartStopwatch(k.Clk)
	// Fork marks every writable PTE copy-on-write; RDB's fork cost is
	// dominated by this. Charge the gap between the VM model's COW mark
	// and the full fork path (page-table duplication). Resident count is
	// taken before the fork drops the writable PTEs.
	resident := r.Proc.Mem.ResidentBytes() / vm.PageSize
	child := r.Proc.Fork()
	k.Clk.Advance(time.Duration(resident) * (k.Costs.ForkPerPage - k.Costs.PageMarkCOW))
	st.StopTime = sw.Elapsed()

	// The child walks the keyspace and serializes each pair.
	saveSW := clock.StartStopwatch(k.Clk)
	var off int64
	buf := make([]byte, 0, 1<<16)
	for key, ent := range r.index {
		k.Clk.Advance(k.Costs.RDBSerializeKV)
		val := make([]byte, ent.valLen)
		addr := r.recAddr(ent.off) + recHeader + uint64(len(key))
		if err := child.ReadMem(addr, val); err != nil {
			return st, err
		}
		buf = buf[:0]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
		buf = append(buf, key...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(val)))
		buf = append(buf, val...)
		if _, err := dev.SubmitWrite(buf, off); err != nil {
			return st, err
		}
		off += int64(len(buf))
		st.Keys++
	}
	st.ImageSize = off
	// Serialization-bound stream write (the paper: 3x slower than
	// Aurora's write path because of serialization overheads).
	target := clock.XferTime(0, k.Costs.RDBWriteBps, off)
	if e := saveSW.Elapsed(); target > e {
		k.Clk.Advance(target - e)
	}
	st.SaveTime = saveSW.Elapsed()
	child.Exit(0)
	return st, nil
}

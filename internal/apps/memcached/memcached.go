// Package memcached implements the Memcached-like key-value server of the
// paper's transparent-persistence experiments (Figures 4 and 5).
//
// Items live in slab-style fixed-size slots inside the process's simulated
// memory. Crucially, *every* operation — GETs included — writes a small LRU
// timestamp into the item's slot, exactly as memcached updates its LRU
// metadata on access. Under continuous checkpointing this is what generates
// the copy-on-write fault amplification the paper measures: each checkpoint
// write-protects the hot pages, and the first touch afterwards pays a fault
// plus a page copy. The hot item space saturates quickly, so the tax per
// interval is roughly constant — which is why halving the checkpoint
// frequency roughly doubles throughput at small periods (Figure 4) while
// the overhead fades at large periods.
package memcached

import (
	"encoding/binary"
	"fmt"
	"time"

	"aurora/internal/kern"
	"aurora/internal/vm"
	"aurora/internal/workload"
)

// SlotSize is the slab slot: header + key + value must fit.
const SlotSize = 512

// slotHeader is [lru u64][keyLen u32][valLen u32].
const slotHeader = 16

// Server is one memcached instance.
type Server struct {
	Proc *kern.Proc

	// ServiceTime is the per-operation CPU charge (request parsing,
	// hashing, response building), calibrated so the no-persistence
	// baseline reaches the paper's ~1.1 M ops/s on the modeled server.
	ServiceTime time.Duration

	arena    uint64
	capacity int64 // slots
	slots    map[string]int64
	next     int64
}

// New creates a server with capacity for n items, as a kernel process.
func New(k *kern.Kernel, items int) (*Server, error) {
	p := k.NewProc("memcached")
	va, err := p.Mmap(int64(items)*SlotSize, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		return nil, err
	}
	return &Server{
		Proc:        p,
		ServiceTime: 850 * time.Nanosecond,
		arena:       va,
		capacity:    int64(items),
		slots:       make(map[string]int64),
	}, nil
}

func (s *Server) slotAddr(idx int64) uint64 { return s.arena + uint64(idx*SlotSize) }

// Set stores an item. Values too large for the slot are truncated, as a
// slab class would reject them.
func (s *Server) Set(key string, val []byte) error {
	s.charge()
	idx, ok := s.slots[key]
	if !ok {
		if s.next >= s.capacity {
			return fmt.Errorf("memcached: out of slots (%d)", s.capacity)
		}
		idx = s.next
		s.next++
		s.slots[key] = idx
	}
	max := SlotSize - slotHeader - len(key)
	if len(val) > max {
		val = val[:max]
	}
	buf := make([]byte, slotHeader+len(key)+len(val))
	binary.LittleEndian.PutUint64(buf[0:], uint64(s.Proc.Kernel().Clk.Now()))
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(key)))
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(val)))
	copy(buf[slotHeader:], key)
	copy(buf[slotHeader+len(key):], val)
	if err := s.Proc.WriteMem(s.slotAddr(idx), buf); err != nil {
		return err
	}
	return nil
}

// Get fetches an item, stamping its LRU word (a write!).
func (s *Server) Get(key string) ([]byte, bool, error) {
	s.charge()
	idx, ok := s.slots[key]
	if !ok {
		return nil, false, nil
	}
	addr := s.slotAddr(idx)
	// LRU touch: memcached moves the item in its LRU on every access.
	var stamp [8]byte
	binary.LittleEndian.PutUint64(stamp[:], uint64(s.Proc.Kernel().Clk.Now()))
	if err := s.Proc.WriteMem(addr, stamp[:]); err != nil {
		return nil, false, err
	}
	var hdr [slotHeader]byte
	if err := s.Proc.ReadMem(addr, hdr[:]); err != nil {
		return nil, false, err
	}
	keyLen := int(binary.LittleEndian.Uint32(hdr[8:]))
	valLen := int(binary.LittleEndian.Uint32(hdr[12:]))
	val := make([]byte, valLen)
	if err := s.Proc.ReadMem(addr+slotHeader+uint64(keyLen), val); err != nil {
		return nil, false, err
	}
	return val, true, nil
}

// Apply executes one workload op.
func (s *Server) Apply(op workload.Op) error {
	switch op.Kind {
	case workload.OpSet:
		return s.Set(op.Key, op.Value)
	case workload.OpGet:
		_, _, err := s.Get(op.Key)
		return err
	default:
		return nil
	}
}

// charge accounts the per-op CPU.
func (s *Server) charge() {
	s.Proc.Kernel().Clk.Advance(s.ServiceTime)
}

// Items returns the number of stored items.
func (s *Server) Items() int { return len(s.slots) }

// RebuildIndex rescans the slot arena after an Aurora restore, proving all
// server state lives in checkpointed memory.
func RebuildIndex(p *kern.Proc, arena uint64, capacity int64) (*Server, error) {
	s := &Server{
		Proc:        p,
		ServiceTime: 850 * time.Nanosecond,
		arena:       arena,
		capacity:    capacity,
		slots:       make(map[string]int64),
	}
	var hdr [slotHeader]byte
	for idx := int64(0); idx < capacity; idx++ {
		if err := p.ReadMem(s.slotAddr(idx), hdr[:]); err != nil {
			return nil, err
		}
		keyLen := int(binary.LittleEndian.Uint32(hdr[8:]))
		if keyLen == 0 || keyLen > SlotSize-slotHeader {
			continue
		}
		key := make([]byte, keyLen)
		if err := p.ReadMem(s.slotAddr(idx)+slotHeader, key); err != nil {
			return nil, err
		}
		s.slots[string(key)] = idx
		if idx >= s.next {
			s.next = idx + 1
		}
	}
	return s, nil
}

// Arena exposes the arena base for post-restore rebuilds.
func (s *Server) Arena() (uint64, int64) { return s.arena, s.capacity }

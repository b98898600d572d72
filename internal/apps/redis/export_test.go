package redis

import (
	"encoding/binary"

	"aurora/internal/kern"
)

// Del removes a key (tombstone in the arena).
func (r *Redis) Del(key string) error {
	ent, ok := r.index[key]
	if !ok {
		return nil
	}
	if err := r.Proc.WriteMem(r.recAddr(ent.off)+8, []byte{1}); err != nil {
		return err
	}
	delete(r.index, key)
	return nil
}

// Len returns the number of live keys.
func (r *Redis) Len() int { return len(r.index) }

// RebuildIndex rescans the arena — the post-restore fixup an Aurora-restored
// instance runs inside its restore signal handler. It proves the entire
// database state lives in checkpointed memory.
func RebuildIndex(p *kern.Proc, arena uint64) (*Redis, error) {
	r := &Redis{Proc: p, arena: arena, index: make(map[string]entry)}
	tail, err := r.loadTail()
	if err != nil {
		return nil, err
	}
	r.tail = tail
	var hdr [recHeader]byte
	for off := int64(0); off < tail; {
		if err := p.ReadMem(r.recAddr(off), hdr[:]); err != nil {
			return nil, err
		}
		keyLen := int(binary.LittleEndian.Uint32(hdr[0:]))
		valLen := int(binary.LittleEndian.Uint32(hdr[4:]))
		dead := hdr[8] != 0
		key := make([]byte, keyLen)
		if err := p.ReadMem(r.recAddr(off)+recHeader, key); err != nil {
			return nil, err
		}
		if !dead {
			r.index[string(key)] = entry{off: off, valLen: valLen}
		}
		off += int64(recHeader + keyLen + valLen)
	}
	// Arena length is unknown post-restore; infer from the mapping.
	if ent, ok := p.Mem.EntryAt(arena); ok {
		r.arenaLen = int64(ent.End-ent.Start) - headerBytes
	}
	return r, nil
}

// Arena returns the arena base address (needed to rebuild after restore).
func (r *Redis) Arena() uint64 { return r.arena }

func (r *Redis) loadTail() (int64, error) {
	var b [8]byte
	if err := r.Proc.ReadMem(r.arena, b[:]); err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(b[:])), nil
}

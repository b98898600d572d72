// Package rocksdb implements the RocksDB-like LSM key-value store of the
// paper's Aurora-API case study (§9.6, Figure 6).
//
// The stock engine has the three structures the paper names: a memtable
// buffering writes in (simulated) memory, a write-ahead log for crash
// consistency, and a log-structured merge tree of sorted runs on a file
// system. The paper's customized build deletes the LSM tree and the WAL
// implementation outright — 81k SLOC replaced by 109 — persisting the
// memtable through Aurora and journaling writes with sls_journal; package
// function NewAuroraWAL is that build.
//
// Four configurations reproduce Figure 6:
//
//	ConfigNoSync     stock engine, WAL disabled (no persistence)
//	ConfigAurora     stock engine, transparently checkpointed at 10 ms
//	ConfigWAL        stock engine, built-in WAL with group commit
//	ConfigAuroraWAL  customized engine: memtable + sls_journal
package rocksdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"aurora/internal/kern"
	"aurora/internal/objstore"
	"aurora/internal/sls"
	"aurora/internal/vfs"
	"aurora/internal/vm"
	"aurora/internal/workload"
)

// Config selects a persistence strategy.
type Config uint8

// Configurations, matching Figure 6's legend.
const (
	ConfigNoSync Config = iota
	ConfigAurora
	ConfigWAL
	ConfigAuroraWAL
)

func (c Config) String() string {
	switch c {
	case ConfigNoSync:
		return "RocksDB"
	case ConfigAurora:
		return "Aurora-100Hz"
	case ConfigWAL:
		return "RocksDB+WAL"
	case ConfigAuroraWAL:
		return "Aurora+WAL"
	default:
		return fmt.Sprintf("Config(%d)", uint8(c))
	}
}

// Sync reports whether the configuration provides per-write persistence.
func (c Config) Sync() bool { return c == ConfigWAL || c == ConfigAuroraWAL }

// DB is one store instance.
type DB struct {
	Proc   *kern.Proc
	Config Config

	// ServiceTime is the per-op CPU charge for the engine itself
	// (memtable insert/lookup, comparators, MVCC bookkeeping).
	ServiceTime time.Duration

	mt *memtable

	// Stock persistence (ConfigWAL / ConfigNoSync).
	fs       vfs.FileSystem
	wal      vfs.File
	walSeq   int64
	lsm      []*sstable
	walBatch int // group-commit size

	// Aurora persistence (ConfigAuroraWAL).
	group   *sls.Group
	journal *objstore.Journal

	// WAL capacity before a flush/checkpoint is forced.
	WALCapacity int64
	walBytes    int64

	// pendingCommit batches sync writes for group commit.
	pendingCommit int

	// compactions numbers the merged sorted runs.
	compactions int
}

// memtable is a sorted in-memory run: key/value bytes live in an arena and
// skiplist nodes live in a separate node region, both in the process's
// simulated memory. An insert writes the new node and updates predecessor
// pointers at *scattered* node addresses, just as a real skiplist does —
// under continuous checkpointing those scattered writes are what re-fault a
// wide page set every interval (the Figure 6 Aurora-100Hz penalty).
type memtable struct {
	p     *kern.Proc
	arena uint64
	cap   int64
	tail  int64
	index map[string]mtEntry // cache over the arena

	nodes     uint64 // skiplist node region base
	nodeCap   int64  // node slots
	nodeCount int64
}

type mtEntry struct {
	off    int64
	valLen int
}

const mtHeader = 8 // keyLen u32, valLen u32

// nodeSize is one skiplist node (key pointer + tower of next pointers).
const nodeSize = 64

func newMemtable(p *kern.Proc, capacity int64) (*memtable, error) {
	va, err := p.Mmap(capacity, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		return nil, err
	}
	nodeCap := capacity / 256 // ~one node per expected entry
	if nodeCap < 64 {
		nodeCap = 64
	}
	nva, err := p.Mmap(nodeCap*nodeSize, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		return nil, err
	}
	return &memtable{
		p:       p,
		arena:   va,
		cap:     capacity,
		index:   make(map[string]mtEntry),
		nodes:   nva,
		nodeCap: nodeCap,
	}, nil
}

// keyHash is a small FNV-1a for deterministic predecessor placement.
func keyHash(key string, salt uint64) uint64 {
	h := uint64(14695981039346656037) ^ salt
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

func (m *memtable) put(key string, val []byte) (bool, error) {
	need := int64(mtHeader + len(key) + len(val))
	if m.tail+need > m.cap || m.nodeCount+1 > m.nodeCap {
		return false, nil // full: caller flushes or checkpoints
	}
	buf := make([]byte, need)
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(key)))
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(val)))
	copy(buf[mtHeader:], key)
	copy(buf[mtHeader+len(key):], val)
	if err := m.p.WriteMem(m.arena+uint64(m.tail), buf); err != nil {
		return false, err
	}

	// Skiplist maintenance: write the new node and splice two
	// predecessor towers at scattered positions in the node region.
	var node [16]byte
	binary.LittleEndian.PutUint64(node[0:], uint64(m.tail))
	if err := m.p.WriteMem(m.nodes+uint64(m.nodeCount*nodeSize), node[:]); err != nil {
		return false, err
	}
	m.nodeCount++
	if m.nodeCount > 2 {
		var ptr [8]byte
		binary.LittleEndian.PutUint64(ptr[:], uint64(m.nodeCount-1))
		for salt := uint64(0); salt < 2; salt++ {
			pred := int64(keyHash(key, salt) % uint64(m.nodeCount-1))
			if err := m.p.WriteMem(m.nodes+uint64(pred*nodeSize)+16, ptr[:]); err != nil {
				return false, err
			}
		}
	}

	m.index[key] = mtEntry{off: m.tail, valLen: len(val)}
	m.tail += need
	return true, nil
}

func (m *memtable) get(key string) ([]byte, bool, error) {
	ent, ok := m.index[key]
	if !ok {
		return nil, false, nil
	}
	val := make([]byte, ent.valLen)
	addr := m.arena + uint64(ent.off) + mtHeader + uint64(len(key))
	if err := m.p.ReadMem(addr, val); err != nil {
		return nil, false, err
	}
	return val, true, nil
}

func (m *memtable) reset() {
	m.tail = 0
	m.nodeCount = 0
	m.index = make(map[string]mtEntry)
}

// sstable is one sorted run (stock LSM only). Data lives in a file.
type sstable struct {
	file  vfs.File
	path  string
	index map[string]ssEntry
}

type ssEntry struct {
	off    int64
	valLen int
}

// Options configures a DB.
type Options struct {
	Config      Config
	MemtableCap int64 // sized to hold the whole DB, as the paper does
	WALCapacity int64
	FS          vfs.FileSystem // stock configurations
	Group       *sls.Group     // Aurora configurations
	WALBatch    int            // group-commit batch (concurrent writers)
}

// Open creates a DB as a new process in k.
func Open(k *kern.Kernel, opts Options) (*DB, error) {
	p := k.NewProc("rocksdb")
	if opts.Group != nil {
		if err := opts.Group.Attach(p); err != nil {
			return nil, err
		}
	}
	return OpenOnProc(p, opts)
}

// OpenOnProc builds the DB in an existing process.
func OpenOnProc(p *kern.Proc, opts Options) (*DB, error) {
	if opts.MemtableCap == 0 {
		opts.MemtableCap = 256 << 20
	}
	if opts.WALCapacity == 0 {
		opts.WALCapacity = 64 << 20
	}
	if opts.WALBatch == 0 {
		opts.WALBatch = 8
	}
	mt, err := newMemtable(p, opts.MemtableCap)
	if err != nil {
		return nil, err
	}
	db := &DB{
		Proc:        p,
		Config:      opts.Config,
		ServiceTime: 300 * time.Nanosecond,
		mt:          mt,
		fs:          opts.FS,
		group:       opts.Group,
		WALCapacity: opts.WALCapacity,
		walBatch:    opts.WALBatch,
	}
	switch opts.Config {
	case ConfigWAL:
		if opts.FS == nil {
			return nil, fmt.Errorf("rocksdb: ConfigWAL needs a file system")
		}
		w, err := opts.FS.Create("/rocksdb/wal-000001.log")
		if err != nil {
			return nil, err
		}
		db.wal = w
	case ConfigNoSync:
		if opts.FS == nil {
			return nil, fmt.Errorf("rocksdb: ConfigNoSync needs a file system")
		}
	case ConfigAuroraWAL:
		if opts.Group == nil {
			return nil, fmt.Errorf("rocksdb: ConfigAuroraWAL needs a group")
		}
		// Extent sized with headroom over the logical WAL capacity
		// (frame headers, group-commit batching slack).
		j, err := opts.Group.Journal("rocksdb-wal", 4*opts.WALCapacity)
		if err != nil {
			return nil, err
		}
		db.journal = j
	case ConfigAurora:
		if opts.Group == nil {
			return nil, fmt.Errorf("rocksdb: ConfigAurora needs a group")
		}
	}
	return db, nil
}

// Put inserts a key/value pair under the configured persistence contract.
func (db *DB) Put(key string, val []byte) error {
	db.Proc.Kernel().Clk.Advance(db.ServiceTime)

	switch db.Config {
	case ConfigWAL:
		// Built-in WAL: serialize a log record; fsync amortized over the
		// writer group (group commit).
		rec := walRecord(db.walSeq, key, val)
		db.walSeq++
		if _, err := db.wal.Append(rec); err != nil {
			return err
		}
		db.walBytes += int64(len(rec))
		db.pendingCommit++
		if db.pendingCommit >= db.walBatch {
			if err := db.wal.Fsync(); err != nil {
				return err
			}
			db.pendingCommit = 0
		}
	case ConfigAuroraWAL:
		// sls_journal: synchronous non-COW append, also group-committed.
		db.pendingCommit++
		if db.pendingCommit >= db.walBatch {
			if _, err := db.journal.Append(batchRecord(key, val, db.walBatch)); err != nil {
				return err
			}
			db.pendingCommit = 0
		}
		db.walBytes += int64(len(key) + len(val) + 16)
	}

	ok, err := db.mt.put(key, val)
	if err != nil {
		return err
	}
	if !ok {
		if err := db.rotate(); err != nil {
			return err
		}
		if ok2, err := db.mt.put(key, val); err != nil || !ok2 {
			return fmt.Errorf("rocksdb: memtable insert failed after rotate: %v", err)
		}
	}

	// WAL-full handling.
	if db.walBytes >= db.WALCapacity {
		if err := db.onWALFull(); err != nil {
			return err
		}
	}
	return nil
}

// Get reads a key (memtable first, then newest-to-oldest sorted runs).
func (db *DB) Get(key string) ([]byte, bool, error) {
	db.Proc.Kernel().Clk.Advance(db.ServiceTime)
	if v, ok, err := db.mt.get(key); err != nil || ok {
		return v, ok, err
	}
	for i := len(db.lsm) - 1; i >= 0; i-- {
		sst := db.lsm[i]
		if ent, ok := sst.index[key]; ok {
			val := make([]byte, ent.valLen)
			if _, err := sst.file.ReadAt(val, ent.off); err != nil {
				return nil, false, err
			}
			return val, true, nil
		}
	}
	return nil, false, nil
}

// Apply executes one workload op.
func (db *DB) Apply(op workload.Op) error {
	switch op.Kind {
	case workload.OpSet:
		return db.Put(op.Key, op.Value)
	case workload.OpGet:
		_, _, err := db.Get(op.Key)
		return err
	}
	return nil
}

// rotate makes room when the memtable fills: the stock engine flushes it to
// a sorted run; the Aurora builds checkpoint (persisting the memtable) and
// then recycle it in place — the memtable IS the database (§9.6), so under
// Aurora a full memtable at steady state means compacting dead versions.
func (db *DB) rotate() error {
	switch db.Config {
	case ConfigWAL, ConfigNoSync:
		return db.flushMemtable()
	default:
		if db.group != nil {
			if _, err := db.group.Checkpoint(sls.CkptIncremental); err != nil {
				return err
			}
		}
		// Compact the arena: rewrite live entries to the front.
		live := make(map[string][]byte, len(db.mt.index))
		for k := range db.mt.index {
			v, ok, err := db.mt.get(k)
			if err != nil {
				return err
			}
			if ok {
				live[k] = v
			}
		}
		db.mt.reset()
		for k, v := range live {
			if ok, err := db.mt.put(k, v); err != nil || !ok {
				return fmt.Errorf("rocksdb: compaction overflow: %v", err)
			}
		}
		return nil
	}
}

// onWALFull is where the configurations diverge: the stock engine flushes
// the memtable to a sorted run and truncates the WAL; the Aurora build
// triggers a checkpoint, waits for the barrier, and truncates the journal
// (the paper's pattern).
func (db *DB) onWALFull() error {
	switch db.Config {
	case ConfigWAL:
		if err := db.flushMemtable(); err != nil {
			return err
		}
		if err := db.wal.Truncate(0); err != nil {
			return err
		}
		db.walBytes = 0
	case ConfigAuroraWAL:
		if _, err := db.group.Checkpoint(sls.CkptIncremental); err != nil {
			return err
		}
		if err := db.group.Barrier(); err != nil {
			return err
		}
		db.journal.Truncate()
		db.walBytes = 0
	default:
		db.walBytes = 0
	}
	return nil
}

// flushMemtable writes the memtable as a sorted run (stock LSM).
func (db *DB) flushMemtable() error {
	if db.fs == nil || len(db.mt.index) == 0 {
		return nil
	}
	path := fmt.Sprintf("/rocksdb/sst-%06d.sst", len(db.lsm))
	f, err := db.fs.Create(path)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(db.mt.index))
	for k := range db.mt.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sst := &sstable{file: f, path: path, index: make(map[string]ssEntry, len(keys))}
	var off int64
	var block bytes.Buffer
	for _, k := range keys {
		v, ok, err := db.mt.get(k)
		if err != nil || !ok {
			continue
		}
		sst.index[k] = ssEntry{off: off + int64(block.Len()), valLen: len(v)}
		block.Write(v)
		if block.Len() >= 64<<10 {
			if _, err := f.WriteAt(block.Bytes(), off); err != nil {
				return err
			}
			off += int64(block.Len())
			block.Reset()
		}
	}
	if block.Len() > 0 {
		if _, err := f.WriteAt(block.Bytes(), off); err != nil {
			return err
		}
	}
	db.lsm = append(db.lsm, sst)
	db.mt.reset()
	if len(db.lsm) > 4 {
		return db.compact()
	}
	return nil
}

// compact merges all runs into one (a simplified universal compaction).
func (db *DB) compact() error {
	db.compactions++
	merged := make(map[string][]byte)
	for _, sst := range db.lsm {
		for k, ent := range sst.index {
			v := make([]byte, ent.valLen)
			if _, err := sst.file.ReadAt(v, ent.off); err != nil {
				return err
			}
			merged[k] = v
		}
	}
	for _, sst := range db.lsm {
		sst.file.Close()
		db.fs.Remove(sst.path) //nolint:errcheck
	}
	db.lsm = nil
	path := fmt.Sprintf("/rocksdb/sst-merged-%06d.sst", db.compactions)
	f, err := db.fs.Create(path)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sst := &sstable{file: f, path: path, index: make(map[string]ssEntry, len(keys))}
	var off int64
	for _, k := range keys {
		v := merged[k]
		if _, err := f.WriteAt(v, off); err != nil {
			return err
		}
		sst.index[k] = ssEntry{off: off, valLen: len(v)}
		off += int64(len(v))
	}
	db.lsm = []*sstable{sst}
	return nil
}

// Flush forces outstanding group commits and (stock) memtable flushes.
func (db *DB) Flush() error {
	if db.pendingCommit > 0 {
		switch db.Config {
		case ConfigWAL:
			if err := db.wal.Fsync(); err != nil {
				return err
			}
		case ConfigAuroraWAL:
			if _, err := db.journal.Append([]byte("flush")); err != nil {
				return err
			}
		}
		db.pendingCommit = 0
	}
	return nil
}

// MemtableArena exposes the arena for post-restore rebuilds.
func (db *DB) MemtableArena() (uint64, int64) { return db.mt.arena, db.mt.cap }

// Len reports live keys in the memtable.
func (db *DB) Len() int { return len(db.mt.index) }

// walRecord builds a stock WAL record (seq, CRC-framed by the FS layer).
func walRecord(seq int64, key string, val []byte) []byte {
	rec := make([]byte, 0, 20+len(key)+len(val))
	rec = binary.LittleEndian.AppendUint64(rec, uint64(seq))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(key)))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(val)))
	rec = append(rec, key...)
	rec = append(rec, val...)
	return rec
}

// batchRecord builds one group-committed journal payload.
func batchRecord(key string, val []byte, batch int) []byte {
	// The batch aggregates `batch` writers' records; sized accordingly.
	rec := make([]byte, 0, batch*(16+len(key)+len(val)))
	for i := 0; i < batch; i++ {
		rec = binary.LittleEndian.AppendUint32(rec, uint32(len(key)))
		rec = binary.LittleEndian.AppendUint32(rec, uint32(len(val)))
		rec = append(rec, key...)
		rec = append(rec, val...)
	}
	return rec
}

// RebuildMemtable rescans the arena after an Aurora restore. The rebuilt
// DB must also accept writes, so it gets a fresh skiplist node region
// (the pre-crash one is still mapped in the restored process but its base
// address is not part of the arena handoff; node state is a cache, so a
// clean region with the record count carried over is equivalent).
func RebuildMemtable(p *kern.Proc, arena uint64, capacity int64) (*DB, error) {
	mt := &memtable{p: p, arena: arena, cap: capacity, index: make(map[string]mtEntry)}
	nodeCap := capacity / 256
	if nodeCap < 64 {
		nodeCap = 64
	}
	nva, err := p.Mmap(nodeCap*nodeSize, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		return nil, err
	}
	mt.nodes = nva
	mt.nodeCap = nodeCap
	var hdr [mtHeader]byte
	for off := int64(0); off < capacity; {
		if err := p.ReadMem(arena+uint64(off), hdr[:]); err != nil {
			return nil, err
		}
		keyLen := int(binary.LittleEndian.Uint32(hdr[0:]))
		valLen := int(binary.LittleEndian.Uint32(hdr[4:]))
		if keyLen == 0 {
			break
		}
		key := make([]byte, keyLen)
		if err := p.ReadMem(arena+uint64(off)+mtHeader, key); err != nil {
			return nil, err
		}
		mt.index[string(key)] = mtEntry{off: off, valLen: valLen}
		off += int64(mtHeader + keyLen + valLen)
		mt.tail = off
		mt.nodeCount++
	}
	return &DB{Proc: p, Config: ConfigAurora, ServiceTime: 300 * time.Nanosecond, mt: mt}, nil
}

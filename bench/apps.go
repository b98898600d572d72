package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"

	"aurora"
	"aurora/internal/apps/memcached"
	"aurora/internal/apps/rocksdb"
	"aurora/internal/workload"
)

// app is the persistent application a workload runs: one process image and
// the seeded driver that mutates it.
type app interface {
	// op performs one application operation; put reports whether it wrote
	// user data and how many bytes.
	op() (putBytes int64, err error)
	// digest is a CRC of the application's persistent arena read through p:
	// the content check after a restore or a failover.
	digest(p *aurora.Proc) (uint32, error)
	// rebind adopts the restored (or promoted) process, rebuilding whatever
	// in-Go index the application keeps over its arena.
	rebind(p *aurora.Proc) error
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// arenaCRC reads [va, va+n) through the process's address space.
func arenaCRC(p *aurora.Proc, va uint64, n int64) (uint32, error) {
	buf := make([]byte, 64<<10)
	var sum uint32
	for off := int64(0); off < n; off += int64(len(buf)) {
		b := buf
		if rest := n - off; rest < int64(len(b)) {
			b = b[:rest]
		}
		if err := p.ReadMem(va+uint64(off), b); err != nil {
			return 0, err
		}
		sum = crc32.Update(sum, castagnoli, b)
	}
	return sum, nil
}

// mcApp is memcached under Facebook-ETC traffic (paper §9.5).
type mcApp struct {
	s   *memcached.Server
	gen *workload.ETC
}

// memcachedConns is the paper's closed-loop population: 4 load machines x
// 12 threads x 12 connections. Every one is an established TCP socket in the
// server's descriptor table, serialised on every checkpoint.
const memcachedConns = 576

func newMemcached(m *aurora.Machine, seed int64, items, conns int) (*mcApp, error) {
	s, err := memcached.New(m.K, items)
	if err != nil {
		return nil, err
	}
	lfd, err := s.Proc.Socket(aurora.SockTCP)
	if err != nil {
		return nil, err
	}
	if err := s.Proc.Bind(lfd, "10.0.0.1:11211"); err != nil {
		return nil, err
	}
	if err := s.Proc.Listen(lfd); err != nil {
		return nil, err
	}
	client := m.K.NewProc("mutilate")
	for i := 0; i < conns; i++ {
		cfd, err := client.Socket(aurora.SockTCP)
		if err != nil {
			return nil, err
		}
		if err := client.Bind(cfd, fmt.Sprintf("10.0.0.%d:%d", 2+i/256, 10000+i%256)); err != nil {
			return nil, err
		}
		if err := client.Connect(cfd, "10.0.0.1:11211"); err != nil {
			return nil, err
		}
		if _, err := s.Proc.Accept(lfd); err != nil {
			return nil, err
		}
	}
	for _, op := range workload.Fill(items, "etc", 300) {
		if err := s.Apply(op); err != nil {
			return nil, err
		}
	}
	return &mcApp{s: s, gen: workload.NewETC(seed, items)}, nil
}

func (a *mcApp) op() (int64, error) {
	op := a.gen.Next()
	if op.Kind == workload.OpSet {
		return int64(len(op.Value)), a.s.Apply(op)
	}
	return 0, a.s.Apply(op)
}

func (a *mcApp) digest(p *aurora.Proc) (uint32, error) {
	va, slots := a.s.Arena()
	return arenaCRC(p, va, slots*memcached.SlotSize)
}

func (a *mcApp) rebind(p *aurora.Proc) error {
	va, slots := a.s.Arena()
	s, err := memcached.RebuildIndex(p, va, slots)
	if err != nil {
		return err
	}
	if s.Items() != a.s.Items() {
		return fmt.Errorf("memcached: rebuilt index has %d items, want %d", s.Items(), a.s.Items())
	}
	a.s = s
	return nil
}

// rocksApp is the customised RocksDB build (paper §9.6): the memtable is the
// database, persisted by Aurora, with writes journaled through sls_journal.
type rocksApp struct {
	db   *rocksdb.DB
	gen  *workload.PrefixDist
	used int64 // arena bytes the puts so far occupy
}

const (
	rocksPrefixes = 2048
	rocksValue    = 400
)

func newRocks(m *aurora.Machine, g *aurora.Group, seed int64, keys int, memtable, wal int64) (*rocksApp, error) {
	db, err := rocksdb.Open(m.K, rocksdb.Options{
		Config: rocksdb.ConfigAuroraWAL, MemtableCap: memtable, WALCapacity: wal, WALBatch: 8, Group: g,
	})
	if err != nil {
		return nil, err
	}
	a := &rocksApp{db: db, gen: workload.NewPrefixDist(seed, rocksPrefixes, keys/rocksPrefixes)}
	val := make([]byte, rocksValue)
	for i := 0; i < keys; i++ {
		if err := a.put(fmt.Sprintf("p%06d:k%08d", i%rocksPrefixes, i/rocksPrefixes), val); err != nil {
			return nil, err
		}
	}
	return a, nil
}

func (a *rocksApp) put(key string, val []byte) error {
	a.used += int64(8 + len(key) + len(val)) // the memtable's record header is 8 bytes
	return a.db.Put(key, val)
}

func (a *rocksApp) op() (int64, error) {
	op := a.gen.Next()
	if op.Kind == workload.OpSet {
		return int64(len(op.Key) + len(op.Value)), a.put(op.Key, op.Value)
	}
	_, _, err := a.db.Get(op.Key)
	return 0, err
}

func (a *rocksApp) digest(p *aurora.Proc) (uint32, error) {
	va, _ := a.db.MemtableArena()
	return arenaCRC(p, va, a.used)
}

func (a *rocksApp) rebind(p *aurora.Proc) error {
	va, capacity := a.db.MemtableArena()
	db, err := rocksdb.RebuildMemtable(p, va, capacity)
	if err != nil {
		return err
	}
	if db.Len() != a.db.Len() {
		return fmt.Errorf("rocksdb: rebuilt memtable has %d keys, want %d", db.Len(), a.db.Len())
	}
	a.db = db
	return nil
}

// pagesApp is a bare process with one anonymous region whose pages a seeded
// picker overwrites: the smallest image that still exercises commit,
// replication and restore, with next to no vm or kern work of its own.
type pagesApp struct {
	p     *aurora.Proc
	va    uint64
	pages int64
	rng   *rand.Rand
	buf   []byte
	n     uint64
}

func newPages(m *aurora.Machine, name string, seed int64, pages int64) (*pagesApp, error) {
	p := m.Spawn(name)
	va, err := p.Mmap(pages*aurora.PageSize, aurora.ProtRead|aurora.ProtWrite, false)
	if err != nil {
		return nil, err
	}
	return &pagesApp{p: p, va: va, pages: pages, rng: rand.New(rand.NewSource(seed)), buf: make([]byte, aurora.PageSize)}, nil
}

// write overwrites page pg with a body no earlier write produced.
func (a *pagesApp) write(pg int64) error {
	a.n++
	binary.LittleEndian.PutUint64(a.buf, a.n)
	binary.LittleEndian.PutUint64(a.buf[aurora.PageSize-8:], a.n^uint64(pg))
	return a.p.WriteMem(a.va+uint64(pg*aurora.PageSize), a.buf)
}

func (a *pagesApp) op() (int64, error) {
	return aurora.PageSize, a.write(a.rng.Int63n(a.pages))
}

// sweep overwrites every stride-th page from a seeded offset: a fixed
// fraction of the region per call, on distinct pages.
func (a *pagesApp) sweep(stride int64) error {
	for pg := a.rng.Int63n(stride); pg < a.pages; pg += stride {
		if err := a.write(pg); err != nil {
			return err
		}
	}
	return nil
}

func (a *pagesApp) digest(p *aurora.Proc) (uint32, error) {
	return arenaCRC(p, a.va, a.pages*aurora.PageSize)
}

func (a *pagesApp) rebind(p *aurora.Proc) error {
	a.p = p
	return nil
}

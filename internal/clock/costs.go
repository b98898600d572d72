package clock

import "time"

// Costs is the calibrated cost model for the simulated substrate. Every
// constant is expressed as the virtual duration of one primitive action; the
// mechanisms charge these as they do the corresponding structural work.
//
// Calibration targets the paper's testbed (dual Xeon Silver 4116 @ 2.1 GHz,
// 96 GiB RAM, 4x Intel Optane 900P striped at 64 KiB). Several constants are
// solved directly from published tables: the journal path in Table 5 implies
// a ~26 us synchronous write latency and ~2.57 GiB/s journal stream
// bandwidth; the incremental checkpoint path implies ~23 ns per dirty page
// for copy-on-write page-table marking over a ~185 us orchestration floor.
type Costs struct {
	// CPU primitives.
	CacheMiss   time.Duration // one pointer-chase / cold cache line
	LockAcquire time.Duration // uncontended mutex acquire+release
	SyscallGate time.Duration // crossing the user/kernel boundary once
	IPIRound    time.Duration // interrupt one core and force it to the boundary

	// Memory.
	MemCopyPerPage time.Duration // memcpy of one 4 KiB page, streaming
	PageMarkCOW    time.Duration // mark one PTE copy-on-write / downgrade
	PageInstall    time.Duration // install one PTE on a soft fault
	TLBFlush       time.Duration // full TLB shootdown on one core
	PageFault      time.Duration // fault entry/exit overhead (excl. copy)
	COWShootdown   time.Duration // TLB shootdown IPIs when a write fault
	// upgrades a downgraded PTE on a multithreaded process (other cores
	// may cache the read-only translation)
	FaultContention time.Duration // extra fault cost while a flush holds
	// VM object locks (§6's fault/collapse contention)
	ShadowCreate    time.Duration // allocate + link one shadow VM object
	CollapsePerPage time.Duration // move one page between objects in collapse

	// Object serialization (checkpointing POSIX state).
	SerializeBase     time.Duration // fixed cost to serialize one kernel object
	SerializePerWord  time.Duration // marshaling cost per 8 bytes of record
	KqueueEvent       time.Duration // lock + copy one kevent structure
	SysVNamespaceScan time.Duration // walk the global SysV IPC namespace
	PtyDevfsLock      time.Duration // devfs locking while recreating a pty
	RestoreBase       time.Duration // fixed cost to rebuild one kernel object

	// Orchestrator.
	CheckpointFloor time.Duration // full-checkpoint fixed path (quiesce,
	// barrier, record setup) beyond per-object costs
	AtomicFloor time.Duration // sls_memckpt fixed path (no full quiesce)

	// Storage device (per simulated NVMe device, before striping).
	DevReadLatency  time.Duration // command issue to first byte, read
	DevWriteLatency time.Duration // command issue to durable, write
	DevReadBps      int64         // sustained read bandwidth, bytes/sec
	DevWriteBps     int64         // sustained write bandwidth, bytes/sec

	// Journal (sls_journal synchronous path; solved from Table 5).
	JournalLatency time.Duration // fixed synchronous append latency
	JournalBps     int64         // journal stream bandwidth, bytes/sec

	// Network (Intel x722 10 GbE, same rack).
	NetRTT      time.Duration // request/response round trip
	NetPerByte  time.Duration // serialization onto a 10 GbE link, per byte
	NetSetupRTT time.Duration // connection establishment (SYN exchange)

	// Baseline checkpointer (CRIU-like, Table 1 / Table 7).
	CRIUFixed     time.Duration // parasite injection, procfs setup
	CRIUPerObject time.Duration // query + dedup one kernel object from user space
	CRIUPageCopy  time.Duration // copy one page out of the stopped process
	CRIUWriteBps  int64         // serial image-write bandwidth

	// Fork-based save (Redis RDB, Table 7).
	ForkPerPage    time.Duration // duplicate one PTE/COW-mark during fork
	RDBSerializeKV time.Duration // serialize one key/value pair
	RDBWriteBps    int64         // RDB stream bandwidth to storage
	ProcSpawnFloor time.Duration // fixed fork/exec cost
	SchedQuantum   time.Duration // scheduler quantum for simulated threads
}

// DefaultCosts returns the model calibrated to the paper's testbed.
func DefaultCosts() *Costs {
	return &Costs{
		CacheMiss:   90 * time.Nanosecond,
		LockAcquire: 40 * time.Nanosecond,
		SyscallGate: 350 * time.Nanosecond,
		IPIRound:    2 * time.Microsecond,

		MemCopyPerPage:  400 * time.Nanosecond, // ~10 GiB/s stream
		PageMarkCOW:     23 * time.Nanosecond,  // Table 5 slope
		PageInstall:     250 * time.Nanosecond,
		TLBFlush:        4 * time.Microsecond,
		PageFault:       600 * time.Nanosecond,
		COWShootdown:    2300 * time.Nanosecond, // ~dual-socket IPI round
		FaultContention: 2600 * time.Nanosecond,
		ShadowCreate:    1500 * time.Nanosecond,
		CollapsePerPage: 120 * time.Nanosecond,

		SerializeBase:     600 * time.Nanosecond,
		SerializePerWord:  1 * time.Nanosecond,
		KqueueEvent:       33 * time.Nanosecond, // Table 4: 1024 events in 35.2 us
		SysVNamespaceScan: 10 * time.Microsecond,
		PtyDevfsLock:      27 * time.Microsecond, // Table 4: pty restore 30.2 us
		RestoreBase:       1800 * time.Nanosecond,

		CheckpointFloor: 170 * time.Microsecond, // Table 5 incremental floor
		AtomicFloor:     65 * time.Microsecond,  // Table 5 atomic floor

		DevReadLatency:  10 * time.Microsecond,
		DevWriteLatency: 12 * time.Microsecond,
		DevReadBps:      2500 << 20, // 2.5 GiB/s per Optane 900P
		DevWriteBps:     2000 << 20, // 2.0 GiB/s per Optane 900P

		JournalLatency: 26 * time.Microsecond, // Table 5: 28 us @ 4 KiB
		JournalBps:     2570 << 20,            // Table 5: 1 GiB in 417 ms

		NetRTT:      30 * time.Microsecond,
		NetPerByte:  1 * time.Nanosecond, // ~1 GB/s on 10 GbE with overheads
		NetSetupRTT: 90 * time.Microsecond,

		CRIUFixed:     45 * time.Millisecond, // Table 1: OS state 49 ms
		CRIUPerObject: 120 * time.Microsecond,
		CRIUPageCopy:  3200 * time.Nanosecond, // Table 1: 413 ms / 128 Ki pages
		CRIUWriteBps:  1430 << 20,             // Table 1: 500 MB in 350 ms

		ForkPerPage:    60 * time.Nanosecond, // Table 7: RDB stop 8 ms
		RDBSerializeKV: 1100 * time.Nanosecond,
		RDBWriteBps:    1700 << 20, // Table 7: 3x slower than Aurora's write
		ProcSpawnFloor: 120 * time.Microsecond,
		SchedQuantum:   1 * time.Millisecond,
	}
}

// XferTime returns the pipe time for n bytes at bps plus a fixed latency.
// It is the canonical "latency + size/bandwidth" device formula.
func XferTime(lat time.Duration, bps int64, n int64) time.Duration {
	if n < 0 {
		panic("clock: negative transfer size")
	}
	if bps <= 0 {
		return lat
	}
	return lat + time.Duration(float64(n)/float64(bps)*float64(time.Second))
}

// Package slsfs implements the Aurora file system (§4.1, §5.2): a namespace
// into the single level store.
//
// Files are ordinary store objects; memory-mapped regions and files are
// represented identically (both are paged objects), which is what unifies
// memory-mapped files. The file system's distinguishing behaviours, all from
// the paper:
//
//   - fsync is a no-op: consistency is provided at checkpoint granularity
//     (checkpoint consistency), relying on external synchrony or the Aurora
//     API for correctness. This is why Aurora wins varmail in Figure 3d.
//   - Anonymous files (unlinked but open) survive: every object carries a
//     hidden reference count that includes open handles and checkpointed
//     process references, kept separately from namespace link counts, so a
//     restore after reboot still finds them.
//   - Vnodes are checkpointed by object identifier (the "inode number"),
//     avoiding name-cache and namei lookups during the checkpoint stop time.
//   - File creation takes a global namespace lock — the unoptimized path
//     the paper calls out in Figure 3c.
package slsfs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"aurora/internal/clock"
	"aurora/internal/mem"
	"aurora/internal/objstore"
	"aurora/internal/rec"
	"aurora/internal/vfs"
)

// NamespaceOID is the reserved object holding the namespace table.
const NamespaceOID objstore.OID = 1

// Object user-type tags used by the file system.
const (
	UTypeNamespace uint16 = 0x4653 // "FS"
	UTypeFile      uint16 = 0x4646 // regular file
)

// FS is the Aurora file system.
type FS struct {
	mu    sync.Mutex
	store *objstore.Store
	clk   clock.Clock
	costs *clock.Costs

	names   map[string]objstore.OID
	nlink   map[objstore.OID]int // namespace links
	hidden  map[objstore.OID]int // open handles + checkpointed references
	dirtyNS bool

	// Periodic checkpointing: ops trigger a checkpoint when the period
	// has elapsed on the virtual clock. Zero disables.
	period   time.Duration
	lastCkpt time.Duration

	// ioWindow bounds the write-behind queue: an op blocks when the
	// device is more than this far behind, which is what makes sustained
	// throughput bandwidth-bound.
	ioWindow time.Duration
}

var _ vfs.FileSystem = (*FS)(nil)

// Format creates an Aurora file system on a freshly formatted store.
func Format(store *objstore.Store, clk clock.Clock, costs *clock.Costs) (*FS, error) {
	fs := newFS(store, clk, costs)
	fs.dirtyNS = true
	if err := fs.Checkpoint(); err != nil {
		return nil, err
	}
	return fs, nil
}

// Recover mounts the file system from the store's last complete checkpoint.
func Recover(store *objstore.Store, clk clock.Clock, costs *clock.Costs) (*FS, error) {
	fs := newFS(store, clk, costs)
	rec, err := store.GetRecord(NamespaceOID)
	if err != nil {
		return nil, fmt.Errorf("slsfs: no namespace object: %w", err)
	}
	if err := fs.decodeNamespace(rec); err != nil {
		return nil, err
	}
	return fs, nil
}

func newFS(store *objstore.Store, clk clock.Clock, costs *clock.Costs) *FS {
	return &FS{
		store:    store,
		clk:      clk,
		costs:    costs,
		names:    make(map[string]objstore.OID),
		nlink:    make(map[objstore.OID]int),
		hidden:   make(map[objstore.OID]int),
		ioWindow: 5 * time.Millisecond,
	}
}

// Store exposes the underlying object store (the SLS orchestrator shares it).
func (fs *FS) Store() *objstore.Store { return fs.store }

// SetCheckpointPeriod enables op-triggered periodic checkpoints.
func (fs *FS) SetCheckpointPeriod(d time.Duration) {
	fs.mu.Lock()
	fs.period = d
	fs.lastCkpt = fs.clk.Now()
	fs.mu.Unlock()
}

// Name implements vfs.FileSystem.
func (fs *FS) Name() string { return "aurora" }

// opEnter charges the syscall path and triggers a periodic checkpoint when
// due. It must be called without fs.mu held.
func (fs *FS) opEnter() {
	fs.clk.Advance(fs.costs.SyscallGate)
	fs.mu.Lock()
	due := fs.period > 0 && fs.clk.Now()-fs.lastCkpt >= fs.period
	if due {
		fs.lastCkpt = fs.clk.Now()
	}
	fs.mu.Unlock()
	if due {
		fs.Checkpoint() //nolint:errcheck // periodic best-effort; surfaced by Sync
	}
}

// Create implements vfs.FileSystem. Creation serializes on the global
// namespace lock (the paper's unoptimized path).
func (fs *FS) Create(path string) (vfs.File, error) {
	fs.opEnter()
	// Global-lock create: charge the serialized section.
	fs.clk.Advance(fs.costs.LockAcquire + 18*time.Microsecond)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.names[path]; ok {
		return nil, fmt.Errorf("%w: %s", vfs.ErrExist, path)
	}
	oid := fs.store.NewOID()
	fs.store.Ensure(oid, UTypeFile)
	fs.names[path] = oid
	fs.nlink[oid] = 1
	fs.hidden[oid]++
	fs.dirtyNS = true
	return &file{fs: fs, oid: oid}, nil
}

// Open implements vfs.FileSystem.
func (fs *FS) Open(path string) (vfs.File, error) {
	fs.opEnter()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	oid, ok := fs.names[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", vfs.ErrNotExist, path)
	}
	fs.hidden[oid]++
	return &file{fs: fs, oid: oid}, nil
}

// OpenByOID opens a file by its object identifier — the restore path, and
// the reason checkpointing vnodes needs no path lookups.
func (fs *FS) OpenByOID(oid objstore.OID) (vfs.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.store.Exists(oid) {
		return nil, fmt.Errorf("%w: oid %d", vfs.ErrNotExist, oid)
	}
	fs.hidden[oid]++
	return &file{fs: fs, oid: oid}, nil
}

// OIDOf returns the object identifier linked at path.
func (fs *FS) OIDOf(path string) (objstore.OID, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	oid, ok := fs.names[path]
	return oid, ok
}

// AddHiddenRef notes an out-of-namespace reference (an open descriptor in a
// checkpointed process). The object outlives unlinking while such
// references exist.
func (fs *FS) AddHiddenRef(oid objstore.OID) {
	fs.mu.Lock()
	fs.hidden[oid]++
	fs.dirtyNS = true
	fs.mu.Unlock()
}

// DropHiddenRef releases a hidden reference, reaping the object if it is
// fully unreferenced and unlinked.
func (fs *FS) DropHiddenRef(oid objstore.OID) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.dropHiddenLocked(oid)
}

// ReleaseHiddenRef drops a hidden reference like DropHiddenRef but never
// reaps: the object stays for whoever opens it by OID next. A restore that
// fails hands its references back this way, so the image it could not
// restore keeps the unnamed files it holds.
func (fs *FS) ReleaseHiddenRef(oid objstore.OID) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.hidden[oid]--; fs.hidden[oid] <= 0 {
		delete(fs.hidden, oid)
	}
	fs.dirtyNS = true
}

func (fs *FS) dropHiddenLocked(oid objstore.OID) {
	fs.hidden[oid]--
	fs.dirtyNS = true
	if fs.hidden[oid] <= 0 {
		delete(fs.hidden, oid)
		if fs.nlink[oid] <= 0 {
			fs.store.Delete(oid) //nolint:errcheck // reap is best-effort
			delete(fs.nlink, oid)
		}
	}
}

// Remove implements vfs.FileSystem.
func (fs *FS) Remove(path string) error {
	fs.opEnter()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	oid, ok := fs.names[path]
	if !ok {
		return fmt.Errorf("%w: %s", vfs.ErrNotExist, path)
	}
	delete(fs.names, path)
	fs.nlink[oid]--
	fs.dirtyNS = true
	if fs.nlink[oid] <= 0 {
		delete(fs.nlink, oid)
		if fs.hidden[oid] <= 0 {
			// No open handles or checkpointed references: reap now.
			fs.store.Delete(oid) //nolint:errcheck
		}
		// Otherwise the hidden reference count keeps it: the paper's
		// anonymous-file case.
	}
	return nil
}

// Rename implements vfs.FileSystem.
func (fs *FS) Rename(old, new string) error {
	fs.opEnter()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	oid, ok := fs.names[old]
	if !ok {
		return fmt.Errorf("%w: %s", vfs.ErrNotExist, old)
	}
	if prev, ok := fs.names[new]; ok {
		fs.nlink[prev]--
		if fs.nlink[prev] <= 0 && fs.hidden[prev] <= 0 {
			fs.store.Delete(prev) //nolint:errcheck
			delete(fs.nlink, prev)
		}
	}
	delete(fs.names, old)
	fs.names[new] = oid
	fs.dirtyNS = true
	return nil
}

// Exists implements vfs.FileSystem.
func (fs *FS) Exists(path string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.names[path]
	return ok
}

// List implements vfs.FileSystem.
func (fs *FS) List(prefix string) []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var out []string
	for p := range fs.names {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Sync implements vfs.FileSystem: it commits a checkpoint and waits for
// durability.
func (fs *FS) Sync() error {
	if err := fs.Checkpoint(); err != nil {
		return err
	}
	return fs.store.WaitDurable(fs.store.Epoch())
}

// Checkpoint flushes the namespace and commits a store checkpoint. Format,
// Sync and the periodic checkpoint of opEnter call it; the SLS orchestrator
// does not — a group checkpoint commits the store without writing the
// namespace record, so a file created and never synced is unnamed after a
// crash and lives on its descriptor's hidden reference.
func (fs *FS) Checkpoint() error {
	fs.mu.Lock()
	if fs.dirtyNS {
		if err := fs.store.PutRecord(NamespaceOID, UTypeNamespace, fs.encodeNamespace()); err != nil {
			fs.mu.Unlock()
			return err
		}
		fs.dirtyNS = false
	}
	fs.mu.Unlock()
	_, err := fs.store.Checkpoint()
	return err
}

// encodeNamespace serializes names, link counts, and hidden references. The
// record is unsealed: it carries no checksum of its own. Requires mu.
func (fs *FS) encodeNamespace() []byte {
	paths := make([]string, 0, len(fs.names))
	for p := range fs.names {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	e := rec.NewEncoder()
	e.U32(uint32(len(paths)))
	for _, p := range paths {
		oid := fs.names[p]
		e.Str(p)
		e.U64(uint64(oid))
		e.U32(uint32(fs.nlink[oid]))
	}
	// Hidden references from checkpointed state (open handles owned by
	// live processes are re-established at restore by the orchestrator).
	hid := make([]objstore.OID, 0, len(fs.hidden))
	for oid := range fs.hidden {
		hid = append(hid, oid)
	}
	sort.Slice(hid, func(i, j int) bool { return hid[i] < hid[j] })
	e.U32(uint32(len(hid)))
	for _, oid := range hid {
		e.U64(uint64(oid))
		e.U32(uint32(fs.hidden[oid]))
	}
	return e.Raw()
}

func (fs *FS) decodeNamespace(b []byte) error {
	d := rec.NewRawDecoder(b)
	n := d.U32()
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		p := d.Str()
		oid := objstore.OID(d.U64())
		links := int(d.U32())
		fs.names[p] = oid
		fs.nlink[oid] = links
	}
	hn := d.U32()
	for i := uint32(0); i < hn && d.Err() == nil; i++ {
		oid := objstore.OID(d.U64())
		fs.hidden[oid] = int(d.U32())
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("slsfs: namespace record: %w", err)
	}
	return nil
}

// file is an open handle.
type file struct {
	fs     *FS
	oid    objstore.OID
	closed bool
}

var _ vfs.File = (*file)(nil)

// OID returns the backing object identifier (the "inode number").
func (f *file) OID() objstore.OID { return f.oid }

func (f *file) ReadAt(p []byte, off int64) (int, error) {
	f.fs.opEnter()
	return f.fs.store.ReadAt(f.oid, off, p)
}

func (f *file) WriteAt(p []byte, off int64) (int, error) {
	f.fs.opEnter()
	// Per-page CPU cost of the store write path (allocation + chunk
	// update), then the asynchronous data submission.
	f.fs.clk.Advance(time.Duration(mem.PagesFor(int64(len(p)))) * 600 * time.Nanosecond)
	if err := f.fs.store.WriteAt(f.oid, off, p); err != nil {
		return 0, err
	}
	f.fs.backpressure()
	return len(p), nil
}

func (f *file) Append(p []byte) (int, error) {
	return f.WriteAt(p, f.Size())
}

func (f *file) Size() int64 {
	sz, err := f.fs.store.Size(f.oid)
	if err != nil {
		return 0
	}
	return sz
}

func (f *file) Truncate(size int64) error {
	f.fs.opEnter()
	return f.fs.store.Truncate(f.oid, size)
}

// Fsync is a no-op: the Aurora file system provides checkpoint consistency
// (§5.2), deliberately ignoring fsync.
func (f *file) Fsync() error {
	f.fs.clk.Advance(f.fs.costs.SyscallGate)
	return nil
}

func (f *file) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	f.fs.DropHiddenRef(f.oid)
	return nil
}

// backpressure blocks the writer when the device write-behind queue exceeds
// the IO window, making sustained write throughput bandwidth-bound.
func (fs *FS) backpressure() {
	// The store tracks pendingDurable; approximating with a store
	// checkpoint durability probe would force commits, so instead bound
	// via the device queue by issuing a zero-length wait when behind.
	// The objstore exposes this through PendingDurable.
	pending := fs.store.PendingDurable()
	if now := fs.clk.Now(); pending > now+fs.ioWindow {
		fs.clk.Advance(pending - now - fs.ioWindow)
	}
}

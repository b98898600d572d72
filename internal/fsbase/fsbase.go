// Package fsbase implements the two baseline file systems the paper
// compares against in Figure 3: FFS with soft-updates journaling (SU+J) and
// ZFS with and without checksumming.
//
// Both are real enough to round-trip data through the simulated device; the
// behaviours that differentiate them in the figure are modeled explicitly:
//
//   - FFS has the optimized small-write path (fragments with delayed
//     allocation promoting writes to full blocks), so its per-operation CPU
//     cost is the lowest, but fsync is a real synchronous flush plus a
//     journal record.
//   - ZFS is copy-on-write: every data write drags a metadata path with it
//     (write amplification), checksumming charges CPU per byte, and fsync
//     lands in the ZFS intent log (ZIL) — faster than a full transaction
//     group but far slower than Aurora's no-op.
package fsbase

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"aurora/internal/clock"
	"aurora/internal/device"
	"aurora/internal/vfs"
)

// extentSize is the allocation granularity for file data on the device.
const extentSize = 64 << 10

// Profile captures the modeled personality of a baseline file system.
type Profile struct {
	FSName string

	PerWriteOp  time.Duration // CPU per write call (allocation, locking)
	PerReadOp   time.Duration // CPU per read call
	PerCreate   time.Duration // CPU per create (directory + inode update)
	PerRemove   time.Duration
	WriteAmp    float64       // metadata bytes written per data byte, extra
	ChecksumBps int64         // bytes/sec of checksum CPU; 0 = no checksums
	FsyncFixed  time.Duration // fixed fsync cost (journal / ZIL record)
	FsyncStream int64         // bytes/sec for flushing dirty data on fsync
}

// FFS returns the FFS (SU+J, no checksums) profile.
func FFS() Profile {
	return Profile{
		FSName:      "ffs",
		PerWriteOp:  600 * time.Nanosecond,
		PerReadOp:   500 * time.Nanosecond,
		PerCreate:   7 * time.Microsecond,
		PerRemove:   5 * time.Microsecond,
		WriteAmp:    0.03, // soft updates batch metadata aggressively
		FsyncFixed:  22 * time.Microsecond,
		FsyncStream: 1800 << 20,
	}
}

// ZFS returns the ZFS profile, optionally with checksumming enabled.
func ZFS(checksums bool) Profile {
	p := Profile{
		FSName:      "zfs",
		PerWriteOp:  1800 * time.Nanosecond,
		PerReadOp:   900 * time.Nanosecond,
		PerCreate:   9 * time.Microsecond,
		PerRemove:   8 * time.Microsecond,
		WriteAmp:    0.30, // COW indirect blocks + spacemap churn
		FsyncFixed:  55 * time.Microsecond,
		FsyncStream: 900 << 20, // ZIL is a single-stream log
	}
	if checksums {
		p.FSName = "zfs+csum"
		p.ChecksumBps = 3 << 30 // fletcher4 at ~3 GiB/s per core
	}
	return p
}

// FS is a baseline file system instance.
type FS struct {
	mu      sync.Mutex
	dev     *device.Stripe
	clk     clock.Clock
	profile Profile

	files    map[string]*inode
	nextOff  int64
	freeExts []int64
	horizon  time.Duration // durability horizon of every write so far

	ioWindow time.Duration
}

type inode struct {
	refs    int
	links   int
	size    int64
	extents map[int64]int64 // file extent index -> device offset
	pending time.Duration   // durability horizon of this file's writes
}

var _ vfs.FileSystem = (*FS)(nil)

// New creates a baseline file system over its own device.
func New(clk clock.Clock, dev *device.Stripe, p Profile) *FS {
	return &FS{
		dev:      dev,
		clk:      clk,
		profile:  p,
		files:    make(map[string]*inode),
		ioWindow: 5 * time.Millisecond,
	}
}

// Name implements vfs.FileSystem.
func (fs *FS) Name() string { return fs.profile.FSName }

// Create implements vfs.FileSystem.
func (fs *FS) Create(path string) (vfs.File, error) {
	fs.clk.Advance(fs.profile.PerCreate)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[path]; ok {
		return nil, fmt.Errorf("%w: %s", vfs.ErrExist, path)
	}
	ino := &inode{refs: 1, links: 1, extents: make(map[int64]int64)}
	fs.files[path] = ino
	return &bfile{fs: fs, ino: ino}, nil
}

// Open implements vfs.FileSystem.
func (fs *FS) Open(path string) (vfs.File, error) {
	fs.clk.Advance(fs.profile.PerReadOp)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", vfs.ErrNotExist, path)
	}
	ino.refs++
	return &bfile{fs: fs, ino: ino}, nil
}

// Remove implements vfs.FileSystem. Conventional semantics: an unlinked
// file survives only while a live handle holds it — after a crash it is
// gone (the edge case the Aurora file system exists to fix).
func (fs *FS) Remove(path string) error {
	fs.clk.Advance(fs.profile.PerRemove)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, ok := fs.files[path]
	if !ok {
		return fmt.Errorf("%w: %s", vfs.ErrNotExist, path)
	}
	delete(fs.files, path)
	ino.links--
	if ino.links <= 0 && ino.refs <= 0 {
		fs.reclaim(ino)
	}
	return nil
}

// Rename implements vfs.FileSystem.
func (fs *FS) Rename(old, new string) error {
	fs.clk.Advance(fs.profile.PerRemove + fs.profile.PerCreate)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, ok := fs.files[old]
	if !ok {
		return fmt.Errorf("%w: %s", vfs.ErrNotExist, old)
	}
	if prev, ok := fs.files[new]; ok {
		prev.links--
		if prev.links <= 0 && prev.refs <= 0 {
			fs.reclaim(prev)
		}
	}
	delete(fs.files, old)
	fs.files[new] = ino
	return nil
}

// Exists implements vfs.FileSystem.
func (fs *FS) Exists(path string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[path]
	return ok
}

// List implements vfs.FileSystem.
func (fs *FS) List(prefix string) []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var out []string
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Sync implements vfs.FileSystem: it waits for every write issued so far
// to complete.
func (fs *FS) Sync() error {
	fs.mu.Lock()
	horizon := fs.horizon
	fs.mu.Unlock()
	fs.dev.WaitUntil(horizon)
	return nil
}

// reclaim returns a file's extents to the free pool. Requires mu.
func (fs *FS) reclaim(ino *inode) {
	for _, off := range ino.extents {
		fs.freeExts = append(fs.freeExts, off)
	}
	ino.extents = nil
}

// allocExtent requires mu.
func (fs *FS) allocExtent() (int64, error) {
	if n := len(fs.freeExts); n > 0 {
		off := fs.freeExts[n-1]
		fs.freeExts = fs.freeExts[:n-1]
		return off, nil
	}
	off := fs.nextOff
	if off+extentSize > fs.dev.Size() {
		return 0, fmt.Errorf("fsbase: device full")
	}
	fs.nextOff += extentSize
	return off, nil
}

// bfile is an open handle on a baseline file system.
type bfile struct {
	fs     *FS
	ino    *inode
	closed bool
}

var _ vfs.File = (*bfile)(nil)

func (f *bfile) WriteAt(p []byte, off int64) (int, error) {
	fs := f.fs
	fs.clk.Advance(fs.profile.PerWriteOp)
	if fs.profile.ChecksumBps > 0 {
		fs.clk.Advance(clock.XferTime(0, fs.profile.ChecksumBps, int64(len(p))))
	}
	fs.mu.Lock()
	n := len(p)
	written := int64(0)
	var latest time.Duration
	for len(p) > 0 {
		ext := (off + written) / extentSize
		in := (off + written) % extentSize
		run := extentSize - in
		if run > int64(len(p)) {
			run = int64(len(p))
		}
		devOff, ok := f.ino.extents[ext]
		if !ok {
			var err error
			devOff, err = fs.allocExtent()
			if err != nil {
				fs.mu.Unlock()
				return int(written), err
			}
			f.ino.extents[ext] = devOff
		}
		done, err := fs.dev.SubmitWrite(p[:run], devOff+in)
		if err != nil {
			fs.mu.Unlock()
			return int(written), err
		}
		latest = max(latest, done)
		fs.horizon = max(fs.horizon, done)
		p = p[run:]
		written += run
	}
	// Metadata amplification rides along asynchronously.
	if amp := int64(float64(n) * fs.profile.WriteAmp); amp > 0 {
		ext, err := fs.allocExtent()
		if err == nil {
			if done, err := fs.dev.SubmitWrite(make([]byte, min64(amp, extentSize)), ext); err == nil {
				fs.freeExts = append(fs.freeExts, ext)
				latest = max(latest, done)
				fs.horizon = max(fs.horizon, done)
			}
		}
	}
	if end := off + written; end > f.ino.size {
		f.ino.size = end
	}
	if latest > f.ino.pending {
		f.ino.pending = latest
	}
	fs.mu.Unlock()
	// Write-behind flow control.
	if now := fs.clk.Now(); latest > now+fs.ioWindow {
		fs.clk.Advance(latest - now - fs.ioWindow)
	}
	return n, nil
}

func (f *bfile) Append(p []byte) (int, error) {
	return f.WriteAt(p, f.Size())
}

func (f *bfile) ReadAt(p []byte, off int64) (int, error) {
	fs := f.fs
	fs.clk.Advance(fs.profile.PerReadOp)
	fs.mu.Lock()
	if off >= f.ino.size {
		fs.mu.Unlock()
		return 0, nil
	}
	if max := f.ino.size - off; int64(len(p)) > max {
		p = p[:max]
	}
	total := 0
	for len(p) > 0 {
		ext := off / extentSize
		in := off % extentSize
		run := extentSize - in
		if run > int64(len(p)) {
			run = int64(len(p))
		}
		if devOff, ok := f.ino.extents[ext]; ok {
			if _, err := fs.dev.ReadAt(p[:run], devOff+in); err != nil {
				fs.mu.Unlock()
				return total, err
			}
		} else {
			for i := int64(0); i < run; i++ {
				p[i] = 0
			}
		}
		p = p[run:]
		off += run
		total += int(run)
	}
	fs.mu.Unlock()
	return total, nil
}

func (f *bfile) Size() int64 {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.ino.size
}

func (f *bfile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.ino.size = size
	return nil
}

// Fsync is a real synchronous flush: wait for the file's outstanding
// writes, then pay the journal/ZIL record.
func (f *bfile) Fsync() error {
	fs := f.fs
	fs.mu.Lock()
	pending := f.ino.pending
	size := f.ino.size
	fs.mu.Unlock()
	if now := fs.clk.Now(); pending > now {
		fs.clk.Advance(pending - now)
	}
	stream := int64(0)
	if fs.profile.FsyncStream > 0 && size > 0 {
		stream = min64(size, extentSize) // dirty tail, bounded
	}
	fs.clk.Advance(clock.XferTime(fs.profile.FsyncFixed, fs.profile.FsyncStream, stream))
	return nil
}

func (f *bfile) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f.ino.refs--
	if f.ino.refs <= 0 && f.ino.links <= 0 {
		fs.reclaim(f.ino)
	}
	return nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

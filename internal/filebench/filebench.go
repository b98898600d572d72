// Package filebench reimplements the FileBench workloads the paper uses to
// evaluate the Aurora object store and file system (§9.1, Figure 3):
// random/sequential writes at 4 KiB and 64 KiB, createfiles, write+fsync,
// and the fileserver, varmail, and webserver personalities.
//
// Workloads run against any vfs.FileSystem on a virtual clock; throughput
// is ops (or bytes) per elapsed virtual second.
package filebench

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"aurora/internal/clock"
	"aurora/internal/device"
	"aurora/internal/fsbase"
	"aurora/internal/objstore"
	"aurora/internal/slsfs"
	"aurora/internal/vfs"
)

// FSNames lists the file systems Mount builds, in Figure 3's comparison
// order.
var FSNames = []string{"zfs", "zfs+csum", "ffs", "aurora"}

// Mount builds the named file system on a four-device stripe of its own
// (64 KiB units, bytes in total) on clk. The Aurora file system checkpoints
// every 10 ms, as in Figure 3.
func Mount(name string, clk *clock.Virtual, costs *clock.Costs, bytes int64) (vfs.FileSystem, error) {
	dev := device.NewStripe(clk, costs, 4, 64<<10, bytes/4)
	switch name {
	case "aurora":
		store, err := objstore.Format(dev, clk, costs)
		if err != nil {
			return nil, err
		}
		fs, err := slsfs.Format(store, clk, costs)
		if err != nil {
			return nil, err
		}
		fs.SetCheckpointPeriod(10 * time.Millisecond)
		return fs, nil
	case "ffs":
		return fsbase.New(clk, dev, fsbase.FFS()), nil
	case "zfs":
		return fsbase.New(clk, dev, fsbase.ZFS(false)), nil
	case "zfs+csum":
		return fsbase.New(clk, dev, fsbase.ZFS(true)), nil
	}
	return nil, fmt.Errorf("unknown file system %q", name)
}

// Workloads is every workload under the name the filebench command takes,
// in the order it runs them.
var Workloads = []struct {
	Name string
	Run  func(vfs.FileSystem, Config) (Result, error)
}{
	{"randomwrite", RandomWrite},
	{"seqwrite", SeqWrite},
	{"createfiles", CreateFiles},
	{"writefsync", WriteFsync},
	{"fileserver", FileServer},
	{"varmail", VarMail},
	{"webserver", WebServer},
}

// Result is one workload measurement.
type Result struct {
	Workload string
	FS       string
	Ops      int64
	Bytes    int64
	Elapsed  time.Duration
}

// OpsPerSec returns the operation throughput.
func (r Result) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// GiBPerSec returns the data throughput.
func (r Result) GiBPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / float64(1<<30) / r.Elapsed.Seconds()
}

func (r Result) String() string {
	return fmt.Sprintf("%-12s %-9s %9.0f ops/s %7.2f GiB/s", r.Workload, r.FS, r.OpsPerSec(), r.GiBPerSec())
}

// Config parameterizes a workload run.
type Config struct {
	Clock    clock.Clock
	Duration time.Duration // virtual duration to run
	IOSize   int           // bytes per IO for write workloads
	FileSize int64         // working file size
	NFiles   int           // file population for multi-file workloads
	Seed     int64
}

func (c *Config) defaults() {
	if c.Duration == 0 {
		c.Duration = 200 * time.Millisecond
	}
	if c.IOSize == 0 {
		c.IOSize = 4096
	}
	if c.FileSize == 0 {
		c.FileSize = 64 << 20
	}
	if c.NFiles == 0 {
		c.NFiles = 64
	}
}

// run drives fn until the virtual duration elapses, then syncs.
func run(fs vfs.FileSystem, cfg Config, name string, fn func(r *rand.Rand) (ops, bytes int64, err error)) (Result, error) {
	cfg.defaults()
	r := rand.New(rand.NewSource(cfg.Seed + 1))
	res := Result{Workload: name, FS: fs.Name()}
	sw := clock.StartStopwatch(cfg.Clock)
	for sw.Elapsed() < cfg.Duration {
		ops, bytes, err := fn(r)
		if err != nil {
			return res, fmt.Errorf("%s on %s: %w", name, fs.Name(), err)
		}
		res.Ops += ops
		res.Bytes += bytes
	}
	if err := fs.Sync(); err != nil {
		return res, err
	}
	res.Elapsed = sw.Elapsed()
	return res, nil
}

// create makes a fresh file at path, replacing any earlier instance.
// Personalities restart their naming counters when re-run against a
// recovered (or merely reused) file system; a surviving file from a
// previous run must not abort the workload.
func create(fs vfs.FileSystem, path string) (vfs.File, error) {
	f, err := fs.Create(path)
	if errors.Is(err, vfs.ErrExist) {
		if rmErr := fs.Remove(path); rmErr != nil {
			return nil, rmErr
		}
		f, err = fs.Create(path)
	}
	return f, err
}

// prepFile creates one file of cfg.FileSize filled lazily (sparse).
func prepFile(fs vfs.FileSystem, cfg Config, name string) (vfs.File, error) {
	f, err := create(fs, name)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(cfg.FileSize); err != nil {
		return nil, err
	}
	return f, nil
}

// RandomWrite measures random whole-IO writes to one large file.
func RandomWrite(fs vfs.FileSystem, cfg Config) (Result, error) {
	cfg.defaults()
	f, err := prepFile(fs, cfg, "bench/randomwrite.dat")
	if err != nil {
		return Result{}, err
	}
	defer f.Close()
	buf := make([]byte, cfg.IOSize)
	slots := cfg.FileSize / int64(cfg.IOSize)
	name := fmt.Sprintf("randwrite-%dK", cfg.IOSize>>10)
	return run(fs, cfg, name, func(r *rand.Rand) (int64, int64, error) {
		off := r.Int63n(slots) * int64(cfg.IOSize)
		if _, err := f.WriteAt(buf, off); err != nil {
			return 0, 0, err
		}
		return 1, int64(cfg.IOSize), nil
	})
}

// SeqWrite measures sequential whole-IO writes, wrapping at FileSize.
func SeqWrite(fs vfs.FileSystem, cfg Config) (Result, error) {
	cfg.defaults()
	f, err := prepFile(fs, cfg, "bench/seqwrite.dat")
	if err != nil {
		return Result{}, err
	}
	defer f.Close()
	buf := make([]byte, cfg.IOSize)
	var off int64
	name := fmt.Sprintf("seqwrite-%dK", cfg.IOSize>>10)
	return run(fs, cfg, name, func(r *rand.Rand) (int64, int64, error) {
		if off+int64(cfg.IOSize) > cfg.FileSize {
			off = 0
		}
		if _, err := f.WriteAt(buf, off); err != nil {
			return 0, 0, err
		}
		off += int64(cfg.IOSize)
		return 1, int64(cfg.IOSize), nil
	})
}

// CreateFiles measures empty-file creation throughput.
func CreateFiles(fs vfs.FileSystem, cfg Config) (Result, error) {
	cfg.defaults()
	n := 0
	return run(fs, cfg, "createfiles", func(r *rand.Rand) (int64, int64, error) {
		f, err := create(fs, fmt.Sprintf("bench/create/f%08d", n))
		if err != nil {
			return 0, 0, err
		}
		n++
		return 1, 0, f.Close()
	})
}

// WriteFsync measures append+fsync pairs of IOSize bytes — the workload
// where Aurora's no-op fsync dominates (Figure 3c).
func WriteFsync(fs vfs.FileSystem, cfg Config) (Result, error) {
	cfg.defaults()
	f, err := create(fs, "bench/fsync.dat")
	if err != nil {
		return Result{}, err
	}
	defer f.Close()
	buf := make([]byte, cfg.IOSize)
	var off int64
	name := fmt.Sprintf("fsync-%dK", cfg.IOSize>>10)
	return run(fs, cfg, name, func(r *rand.Rand) (int64, int64, error) {
		if off >= cfg.FileSize {
			off = 0
		}
		if _, err := f.WriteAt(buf, off); err != nil {
			return 0, 0, err
		}
		off += int64(cfg.IOSize)
		if err := f.Fsync(); err != nil {
			return 0, 0, err
		}
		return 2, int64(cfg.IOSize), nil // write + fsync, as FileBench counts
	})
}

// FileServer simulates the FileBench fileserver personality: a mix of whole
// file creates/writes/reads/appends/deletes over a directory tree.
func FileServer(fs vfs.FileSystem, cfg Config) (Result, error) {
	cfg.defaults()
	const fileSize = 128 << 10
	if err := populate(fs, "bench/fsrv", cfg.NFiles, fileSize); err != nil {
		return Result{}, err
	}
	buf := make([]byte, 16<<10)
	n := cfg.NFiles
	return run(fs, cfg, "fileserver", func(r *rand.Rand) (int64, int64, error) {
		var ops, bytes int64
		pick := fmt.Sprintf("bench/fsrv/f%06d", r.Intn(cfg.NFiles))
		switch r.Intn(10) {
		case 0: // create+write a new file, delete an old one
			name := fmt.Sprintf("bench/fsrv/f%06d", n)
			n++
			f, err := create(fs, name)
			if err != nil {
				return 0, 0, err
			}
			for w := 0; w < fileSize/len(buf); w++ {
				if _, err := f.Append(buf); err != nil {
					return 0, 0, err
				}
				ops++
				bytes += int64(len(buf))
			}
			f.Close()
			if fs.Exists(pick) {
				if err := fs.Remove(pick); err != nil {
					return 0, 0, err
				}
			}
			ops += 2
		case 1, 2: // append
			f, err := fs.Open(pick)
			if err != nil {
				return ops, bytes, nil // deleted by a previous op
			}
			if _, err := f.Append(buf); err != nil {
				return 0, 0, err
			}
			f.Close()
			ops++
			bytes += int64(len(buf))
		default: // whole-file read
			f, err := fs.Open(pick)
			if err != nil {
				return ops, bytes, nil
			}
			sz := f.Size()
			for off := int64(0); off < sz; off += int64(len(buf)) {
				if _, err := f.ReadAt(buf, off); err != nil {
					return 0, 0, err
				}
				ops++
				bytes += int64(len(buf))
			}
			f.Close()
		}
		ops++
		return ops, bytes, nil
	})
}

// VarMail simulates the FileBench varmail personality: create, append,
// fsync, read, delete — the fsync-per-message pattern of an MTA.
func VarMail(fs vfs.FileSystem, cfg Config) (Result, error) {
	cfg.defaults()
	const msgSize = 16 << 10
	if err := populate(fs, "bench/mail", cfg.NFiles, msgSize); err != nil {
		return Result{}, err
	}
	buf := make([]byte, msgSize)
	n := cfg.NFiles
	return run(fs, cfg, "varmail", func(r *rand.Rand) (int64, int64, error) {
		// Deliver: create + write + fsync.
		name := fmt.Sprintf("bench/mail/m%08d", n)
		n++
		f, err := create(fs, name)
		if err != nil {
			return 0, 0, err
		}
		if _, err := f.Append(buf); err != nil {
			return 0, 0, err
		}
		if err := f.Fsync(); err != nil {
			return 0, 0, err
		}
		f.Close()
		// Read a message, append a flag update, fsync again.
		pick := fmt.Sprintf("bench/mail/m%08d", cfg.NFiles+r.Intn(n-cfg.NFiles))
		if g, err := fs.Open(pick); err == nil {
			g.ReadAt(buf, 0)
			g.Append(buf[:256])
			if err := g.Fsync(); err != nil {
				return 0, 0, err
			}
			g.Close()
		}
		// Expire an old message.
		old := fmt.Sprintf("bench/mail/m%08d", r.Intn(cfg.NFiles))
		if fs.Exists(old) {
			fs.Remove(old)
		}
		return 8, msgSize + 256, nil
	})
}

// WebServer simulates the FileBench webserver personality: open/read whole
// files, plus a small append to a shared log.
func WebServer(fs vfs.FileSystem, cfg Config) (Result, error) {
	cfg.defaults()
	const pageSize = 32 << 10
	if err := populate(fs, "bench/web", cfg.NFiles, pageSize); err != nil {
		return Result{}, err
	}
	log, err := create(fs, "bench/web/access.log")
	if err != nil {
		return Result{}, err
	}
	defer log.Close()
	buf := make([]byte, pageSize)
	return run(fs, cfg, "webserver", func(r *rand.Rand) (int64, int64, error) {
		var ops, bytes int64
		for i := 0; i < 10; i++ { // 10 reads per log append, as FileBench
			pick := fmt.Sprintf("bench/web/f%06d", r.Intn(cfg.NFiles))
			f, err := fs.Open(pick)
			if err != nil {
				return 0, 0, err
			}
			if _, err := f.ReadAt(buf, 0); err != nil {
				return 0, 0, err
			}
			f.Close()
			ops += 2
			bytes += pageSize
		}
		if _, err := log.Append(buf[:512]); err != nil {
			return 0, 0, err
		}
		ops++
		bytes += 512
		return ops, bytes, nil
	})
}

// populate creates n files of size bytes under dir. Files that already
// exist (a previous run, or a run resumed on a recovered file system)
// are kept as-is: the population is the precondition, not the payload.
func populate(fs vfs.FileSystem, dir string, n int, size int64) error {
	buf := make([]byte, 16<<10)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s/f%06d", dir, i)
		if fs.Exists(name) {
			continue
		}
		f, err := fs.Create(name)
		if err != nil {
			return err
		}
		for off := int64(0); off < size; off += int64(len(buf)) {
			run := int64(len(buf))
			if off+run > size {
				run = size - off
			}
			if _, err := f.WriteAt(buf[:run], off); err != nil {
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return fs.Sync()
}

package filebench

import (
	"testing"
	"time"

	"aurora/internal/clock"
	"aurora/internal/vfs"
)

// mounts builds one instance of every file system on its own device.
func mounts(t *testing.T) (map[string]vfs.FileSystem, *clock.Virtual) {
	t.Helper()
	clk := clock.NewVirtual()
	costs := clock.DefaultCosts()
	out := make(map[string]vfs.FileSystem)
	for _, name := range FSNames {
		fs, err := Mount(name, clk, costs, 4<<30)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = fs
	}
	return out, clk
}

func cfg(clk clock.Clock, iosize int) Config {
	return Config{
		Clock:    clk,
		Duration: 50 * time.Millisecond,
		IOSize:   iosize,
		FileSize: 16 << 20,
		NFiles:   16,
		Seed:     42,
	}
}

func TestAllWorkloadsRunOnAllFilesystems(t *testing.T) {
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			fss, clk := mounts(t)
			for name, fs := range fss {
				res, err := w.Run(fs, cfg(clk, 4096))
				if err != nil {
					t.Fatalf("%s on %s: %v", w.Name, name, err)
				}
				if res.Ops <= 0 {
					t.Fatalf("%s on %s: zero ops", w.Name, name)
				}
				if res.Elapsed <= 0 {
					t.Fatalf("%s on %s: zero elapsed", w.Name, name)
				}
			}
		})
	}
}

func TestFigure3Shape(t *testing.T) {
	// The relationships the paper's Figure 3 shows must hold in the model.
	fss, clk := mounts(t)

	// (b) 4 KiB random writes: FFS (fragments) beats Aurora beats ZFS.
	rw := map[string]Result{}
	for name, fs := range fss {
		res, err := RandomWrite(fs, cfg(clk, 4096))
		if err != nil {
			t.Fatal(err)
		}
		rw[name] = res
	}
	if !(rw["ffs"].GiBPerSec() > rw["aurora"].GiBPerSec()) {
		t.Errorf("4K random: FFS %.2f <= Aurora %.2f GiB/s", rw["ffs"].GiBPerSec(), rw["aurora"].GiBPerSec())
	}
	if !(rw["aurora"].GiBPerSec() > rw["zfs"].GiBPerSec()) {
		t.Errorf("4K random: Aurora %.2f <= ZFS %.2f GiB/s", rw["aurora"].GiBPerSec(), rw["zfs"].GiBPerSec())
	}
	if !(rw["zfs"].GiBPerSec() > rw["zfs+csum"].GiBPerSec()) {
		t.Errorf("4K random: ZFS %.2f <= ZFS+CSUM %.2f GiB/s", rw["zfs"].GiBPerSec(), rw["zfs+csum"].GiBPerSec())
	}

	// (a) 64 KiB: Aurora beats ZFS.
	fss, clk = mounts(t)
	rw64 := map[string]Result{}
	for name, fs := range fss {
		res, err := RandomWrite(fs, cfg(clk, 64<<10))
		if err != nil {
			t.Fatal(err)
		}
		rw64[name] = res
	}
	if !(rw64["aurora"].GiBPerSec() > rw64["zfs"].GiBPerSec()) {
		t.Errorf("64K random: Aurora %.2f <= ZFS %.2f GiB/s", rw64["aurora"].GiBPerSec(), rw64["zfs"].GiBPerSec())
	}

	// (c) write+fsync: Aurora's no-op fsync wins by a wide margin.
	fss, clk = mounts(t)
	fsync := map[string]Result{}
	for name, fs := range fss {
		res, err := WriteFsync(fs, cfg(clk, 4096))
		if err != nil {
			t.Fatal(err)
		}
		fsync[name] = res
	}
	if !(fsync["aurora"].OpsPerSec() > 2*fsync["ffs"].OpsPerSec()) {
		t.Errorf("fsync: Aurora %.0f not >> FFS %.0f ops/s", fsync["aurora"].OpsPerSec(), fsync["ffs"].OpsPerSec())
	}
	if !(fsync["ffs"].OpsPerSec() > fsync["zfs"].OpsPerSec()) {
		t.Errorf("fsync: FFS %.0f <= ZFS %.0f ops/s", fsync["ffs"].OpsPerSec(), fsync["zfs"].OpsPerSec())
	}

	// (c) createfiles: Aurora's global-lock create is the slowest.
	fss, clk = mounts(t)
	creates := map[string]Result{}
	for name, fs := range fss {
		res, err := CreateFiles(fs, cfg(clk, 4096))
		if err != nil {
			t.Fatal(err)
		}
		creates[name] = res
	}
	if !(creates["aurora"].OpsPerSec() < creates["ffs"].OpsPerSec()) {
		t.Errorf("createfiles: Aurora %.0f >= FFS %.0f ops/s", creates["aurora"].OpsPerSec(), creates["ffs"].OpsPerSec())
	}

	// (d) varmail: Aurora wins because the workload is fsync-bound.
	fss, clk = mounts(t)
	vm := map[string]Result{}
	for name, fs := range fss {
		res, err := VarMail(fs, cfg(clk, 4096))
		if err != nil {
			t.Fatal(err)
		}
		vm[name] = res
	}
	if !(vm["aurora"].OpsPerSec() > vm["zfs"].OpsPerSec()) {
		t.Errorf("varmail: Aurora %.0f <= ZFS %.0f ops/s", vm["aurora"].OpsPerSec(), vm["zfs"].OpsPerSec())
	}
	if !(vm["aurora"].OpsPerSec() > vm["ffs"].OpsPerSec()) {
		t.Errorf("varmail: Aurora %.0f <= FFS %.0f ops/s", vm["aurora"].OpsPerSec(), vm["ffs"].OpsPerSec())
	}
}

func TestResultFormatting(t *testing.T) {
	r := Result{Workload: "x", FS: "y", Ops: 1000, Bytes: 1 << 30, Elapsed: time.Second}
	if r.OpsPerSec() != 1000 {
		t.Fatalf("OpsPerSec = %v", r.OpsPerSec())
	}
	if r.GiBPerSec() != 1 {
		t.Fatalf("GiBPerSec = %v", r.GiBPerSec())
	}
	if s := r.String(); s == "" {
		t.Fatal("empty String()")
	}
	var zero Result
	if zero.OpsPerSec() != 0 || zero.GiBPerSec() != 0 {
		t.Fatal("zero-elapsed result not zero")
	}
}

package experiments

import (
	"fmt"
	"time"

	"aurora"
	"aurora/internal/kern"
	"aurora/internal/sls"
	"aurora/internal/vm"
)

// Table 4: checkpoint and restore times for individual POSIX objects.

// Table4Row is one object type's measurement.
type Table4Row struct {
	Object     string
	Checkpoint time.Duration
	Restore    time.Duration
}

// Table4Result is the full table.
type Table4Result struct{ Rows []Table4Row }

// Render prints the table.
func (r Table4Result) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Object, fmtDur(row.Checkpoint), fmtDur(row.Restore)})
	}
	return "Table 4: checkpoint and restore times for POSIX objects\n" +
		table([]string{"POSIX Object", "Checkpoint", "Restore"}, rows)
}

// measureObject checkpoints a process holding exactly the object under test
// (on top of a bare process baseline) and restores it, isolating the
// object's marginal cost.
func measureObject(name string, setup func(p *kern.Proc) error) (Table4Row, error) {
	// Baseline: a process with no extra objects.
	base, err := objectCosts(nil)
	if err != nil {
		return Table4Row{}, err
	}
	with, err := objectCosts(setup)
	if err != nil {
		return Table4Row{}, err
	}
	row := Table4Row{Object: name}
	if with.ckpt > base.ckpt {
		row.Checkpoint = with.ckpt - base.ckpt
	}
	if with.restore > base.restore {
		row.Restore = with.restore - base.restore
	}
	return row, nil
}

type objCost struct{ ckpt, restore time.Duration }

func objectCosts(setup func(p *kern.Proc) error) (objCost, error) {
	m, err := aurora.NewMachine(aurora.Config{StorageBytes: 4 << 30})
	if err != nil {
		return objCost{}, err
	}
	p := m.Spawn("bench")
	if setup != nil {
		if err := setup(p); err != nil {
			return objCost{}, err
		}
	}
	g, err := m.Attach("bench", p)
	if err != nil {
		return objCost{}, err
	}
	// Warm checkpoint (full image), then measure the steady state. The table
	// is the cost of *capturing* an object, and an untouched object's second
	// incremental checkpoint no longer captures it (the generation gate
	// skips it for one cache miss), so the timed one is a CkptFull: the gate
	// is open and every object costs what a changed one costs.
	if _, err := g.Checkpoint(sls.CkptIncremental); err != nil {
		return objCost{}, err
	}
	st, err := g.Checkpoint(sls.CkptFull)
	if err != nil {
		return objCost{}, err
	}
	m2, err := m.Crash()
	if err != nil {
		return objCost{}, err
	}
	_, rst, err := m2.RestoreLazily("bench")
	if err != nil {
		return objCost{}, err
	}
	return objCost{ckpt: st.OSTime, restore: rst.Time}, nil
}

// Table4 measures each of the paper's object types.
func Table4() (Table4Result, error) {
	specs := []struct {
		name  string
		setup func(p *kern.Proc) error
	}{
		{"Kqueue w/1024 events", func(p *kern.Proc) error {
			kq, err := p.Kqueue()
			if err != nil {
				return err
			}
			for i := 0; i < 1024; i++ {
				if err := p.KeventAdd(kq, kern.Kevent{Ident: uint64(i), Filter: kern.FilterUser}); err != nil {
					return err
				}
			}
			return nil
		}},
		{"Pipes", func(p *kern.Proc) error {
			_, _, err := p.Pipe()
			return err
		}},
		{"Pseudoterminals", func(p *kern.Proc) error {
			_, _, err := p.OpenPTY()
			return err
		}},
		{"Shared Memory (POSIX)", func(p *kern.Proc) error {
			_, err := p.ShmOpen("/bench", 1<<20)
			return err
		}},
		{"Shared Memory (SysV)", func(p *kern.Proc) error {
			_, err := p.ShmGet(0x42, 1<<20)
			return err
		}},
		{"Sockets", func(p *kern.Proc) error {
			fd, err := p.Socket(kern.KindSocketTCP)
			if err != nil {
				return err
			}
			if err := p.Bind(fd, "10.0.0.1:80"); err != nil {
				return err
			}
			return p.Listen(fd)
		}},
		{"Vnodes", func(p *kern.Proc) error {
			_, err := p.Open("/bench-file", kern.ORead|kern.OWrite, true)
			return err
		}},
	}
	var out Table4Result
	for _, spec := range specs {
		row, err := measureObject(spec.name, spec.setup)
		if err != nil {
			return out, fmt.Errorf("%s: %w", spec.name, err)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Table 5: checkpoint stop time versus dirty-region size for the three
// persistence modes: transparent incremental checkpoints, atomic region
// checkpoints (sls_memckpt), and synchronous journaling (sls_journal).

// Table5Row is one size's measurements.
type Table5Row struct {
	Size        int64
	Incremental time.Duration
	Atomic      time.Duration
	Journaled   time.Duration
}

// Table5Result is the sweep.
type Table5Result struct{ Rows []Table5Row }

// Render prints the table.
func (r Table5Result) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmtBytes(row.Size),
			fmtDur(row.Incremental),
			fmtDur(row.Atomic),
			fmtDur(row.Journaled),
		})
	}
	return "Table 5: checkpoint times for user data objects by API mode\n" +
		table([]string{"Object Size", "Incremental", "Atomic", "Journaled"}, rows)
}

// Table5Sizes lists the paper's sweep.
func Table5Sizes(scale Scale) []int64 {
	sizes := []int64{
		4 << 10, 16 << 10, 64 << 10, 256 << 10,
		1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30,
	}
	if scale == Quick {
		return sizes[:7] // up to 16 MiB
	}
	return sizes
}

// Table5 runs the sweep.
func Table5(scale Scale) (Table5Result, error) {
	var out Table5Result
	for _, size := range Table5Sizes(scale) {
		row, err := table5Row(size)
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func table5Row(size int64) (Table5Row, error) {
	row := Table5Row{Size: size}
	m, err := aurora.NewMachine(aurora.Config{StorageBytes: max(8<<30, size*6)})
	if err != nil {
		return row, err
	}
	p := m.Spawn("bench")
	g, err := m.Attach("bench", p)
	if err != nil {
		return row, err
	}
	region := size
	if region < vm.PageSize {
		region = vm.PageSize
	}
	va, err := p.Mmap(region, vm.ProtRead|vm.ProtWrite, false)
	if err != nil {
		return row, err
	}
	dirty := func() error {
		buf := make([]byte, vm.PageSize)
		for off := int64(0); off < size; off += vm.PageSize {
			if err := p.WriteMem(va+uint64(off), buf); err != nil {
				return err
			}
		}
		return nil
	}

	// Warm up: full image captured once.
	if err := dirty(); err != nil {
		return row, err
	}
	if _, err := g.Checkpoint(sls.CkptIncremental); err != nil {
		return row, err
	}
	if err := g.Barrier(); err != nil {
		return row, err
	}

	// Incremental: dirty the region, measure stop time.
	if err := dirty(); err != nil {
		return row, err
	}
	ist, err := g.Checkpoint(sls.CkptIncremental)
	if err != nil {
		return row, err
	}
	row.Incremental = ist.StopTime
	if err := g.Barrier(); err != nil {
		return row, err
	}

	// Atomic: sls_memckpt of the single region.
	if err := dirty(); err != nil {
		return row, err
	}
	ast, err := g.MemCkpt(p, va)
	if err != nil {
		return row, err
	}
	row.Atomic = ast.StopTime

	// Journaled: synchronous sls_journal append of the same payload.
	j, err := g.Journal("bench", 2*size+(1<<20))
	if err != nil {
		return row, err
	}
	payload := make([]byte, size)
	before := m.Clock.Now()
	if _, err := j.Append(payload); err != nil {
		return row, err
	}
	row.Journaled = m.Clock.Now() - before
	return row, nil
}

// Table 6: checkpoint stop times and restore times for popular
// applications, reproduced with synthetic processes matching each
// application's resident set and OS-state complexity.

// AppProfile describes one application's footprint.
type AppProfile struct {
	Name     string
	RSS      int64 // resident set
	Entries  int   // address-space regions
	Threads  int
	Vnodes   int
	Sockets  int
	Pipes    int
	HasPTY   bool
	Kqueues  int
	Children int // forked helper processes
}

// Profiles matching the paper's five applications. Entry/thread counts
// reflect the paper's observation that OS complexity, not memory size,
// drives stop times (vim and pillow are small but structurally complex).
var Table6Profiles = []AppProfile{
	{Name: "firefox", RSS: 198 << 20, Entries: 380, Threads: 58, Vnodes: 90, Sockets: 24, Pipes: 12, Kqueues: 4, Children: 3},
	{Name: "mosh", RSS: 24 << 20, Entries: 60, Threads: 2, Vnodes: 12, Sockets: 4, HasPTY: true},
	{Name: "pillow", RSS: 75 << 20, Entries: 150, Threads: 4, Vnodes: 30, Pipes: 2},
	{Name: "tomcat", RSS: 197 << 20, Entries: 520, Threads: 85, Vnodes: 140, Sockets: 40, Kqueues: 2},
	{Name: "vim", RSS: 48 << 20, Entries: 160, Threads: 2, Vnodes: 25, HasPTY: true},
}

// Table6Row is one application's measurements.
type Table6Row struct {
	App         string
	Size        int64
	CkptMem     time.Duration
	CkptFull    time.Duration
	CkptIncr    time.Duration
	RestoreMem  time.Duration
	RestoreFull time.Duration
	RestoreLazy time.Duration
}

// Table6Result is the table.
type Table6Result struct{ Rows []Table6Row }

// Render prints the table.
func (r Table6Result) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.App, fmtBytes(row.Size),
			fmtDur(row.CkptMem), fmtDur(row.CkptFull), fmtDur(row.CkptIncr),
			fmtDur(row.RestoreMem), fmtDur(row.RestoreFull), fmtDur(row.RestoreLazy),
		})
	}
	return "Table 6: application checkpoint stop times and restore times\n" +
		table([]string{"App", "Size", "Ckpt Mem", "Ckpt Full", "Ckpt Incr", "Rst Mem", "Rst Full", "Rst Lazy"}, rows)
}

// buildApp constructs a synthetic process tree matching a profile.
func buildApp(m *aurora.Machine, prof AppProfile) (*kern.Proc, error) {
	p := m.Spawn(prof.Name)
	perEntry := prof.RSS / int64(prof.Entries)
	perEntry -= perEntry % vm.PageSize
	if perEntry < vm.PageSize {
		perEntry = vm.PageSize
	}
	buf := make([]byte, vm.PageSize)
	for i := 0; i < prof.Entries; i++ {
		va, err := p.Mmap(perEntry, vm.ProtRead|vm.ProtWrite, false)
		if err != nil {
			return nil, err
		}
		for off := int64(0); off < perEntry; off += vm.PageSize {
			if err := p.WriteMem(va+uint64(off), buf); err != nil {
				return nil, err
			}
		}
	}
	for i := 1; i < prof.Threads; i++ {
		p.SpawnThread(fmt.Sprintf("worker-%d", i))
	}
	for i := 0; i < prof.Vnodes; i++ {
		if _, err := p.Open(fmt.Sprintf("/%s/file-%03d", prof.Name, i), kern.ORead|kern.OWrite, true); err != nil {
			return nil, err
		}
	}
	for i := 0; i < prof.Sockets; i++ {
		fd, err := p.Socket(kern.KindSocketTCP)
		if err != nil {
			return nil, err
		}
		if err := p.Bind(fd, fmt.Sprintf("10.0.0.1:%d", 1000+i)); err != nil {
			return nil, err
		}
		if err := p.Listen(fd); err != nil {
			return nil, err
		}
	}
	for i := 0; i < prof.Pipes; i++ {
		if _, _, err := p.Pipe(); err != nil {
			return nil, err
		}
	}
	if prof.HasPTY {
		if _, _, err := p.OpenPTY(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < prof.Kqueues; i++ {
		kq, err := p.Kqueue()
		if err != nil {
			return nil, err
		}
		for e := 0; e < 64; e++ {
			if err := p.KeventAdd(kq, kern.Kevent{Ident: uint64(e), Filter: kern.FilterRead}); err != nil {
				return nil, err
			}
		}
	}
	if err := p.MapVDSO(); err != nil {
		return nil, err
	}
	for i := 0; i < prof.Children; i++ {
		p.Fork()
	}
	return p, nil
}

// Table6App measures one profile.
func Table6App(prof AppProfile, scale Scale) (Table6Row, error) {
	if scale == Quick {
		prof.RSS /= 8
	}
	row := Table6Row{App: prof.Name, Size: prof.RSS}
	m, err := aurora.NewMachine(aurora.Config{StorageBytes: max(8<<30, prof.RSS*8)})
	if err != nil {
		return row, err
	}
	p, err := buildApp(m, prof)
	if err != nil {
		return row, err
	}
	g, err := m.Attach(prof.Name, p)
	if err != nil {
		return row, err
	}

	// Mem: in-memory capture only, before anything is on disk (the
	// upper bound of pure stop-side work with the whole image dirty).
	mst, err := g.Checkpoint(sls.CkptMemOnly)
	if err != nil {
		return row, err
	}
	row.CkptMem = mst.StopTime

	// Full: flush everything.
	fst, err := g.Checkpoint(sls.CkptFull)
	if err != nil {
		return row, err
	}
	row.CkptFull = fst.StopTime
	if err := g.Barrier(); err != nil {
		return row, err
	}

	// Incremental with the app mostly idle (the paper's lower bound).
	ist, err := g.Checkpoint(sls.CkptIncremental)
	if err != nil {
		return row, err
	}
	row.CkptIncr = ist.StopTime
	if err := g.Barrier(); err != nil {
		return row, err
	}

	// Restore from memory: rebuild OS state against the live store's
	// cache (lazy, no page loads — the dominant cost is object
	// recreation).
	_, rmem, err := m.SLS.RestoreGroup(prof.Name, m.Store, sls.RestoreLazy, true)
	if err != nil {
		return row, err
	}
	row.RestoreMem = rmem.Time

	// Restores from disk after a reboot: full (eager pages) and lazy.
	m2, err := m.Crash()
	if err != nil {
		return row, err
	}
	_, rfull, err := m2.Restore(prof.Name)
	if err != nil {
		return row, err
	}
	row.RestoreFull = rfull.Time

	m3, err := m.Crash()
	if err != nil {
		return row, err
	}
	_, rlazy, err := m3.RestoreLazily(prof.Name)
	if err != nil {
		return row, err
	}
	row.RestoreLazy = rlazy.Time
	return row, nil
}

// Table6 measures all profiles.
func Table6(scale Scale) (Table6Result, error) {
	var out Table6Result
	for _, prof := range Table6Profiles {
		row, err := Table6App(prof, scale)
		if err != nil {
			return out, fmt.Errorf("%s: %w", prof.Name, err)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

package main

import (
	"errors"
	"fmt"
	"time"

	"aurora"
	"aurora/internal/clock"
	"aurora/internal/device"
	"aurora/internal/mem"
	"aurora/internal/net"
	"aurora/internal/objstore"
	"aurora/internal/placement"
	"aurora/internal/rec"
	"aurora/internal/vm"
)

// A probe calls one layer's public functions directly, on a fresh instance,
// in a fixed-count loop with the shapes the workloads give that layer. It is
// the per-layer number an optimisation of that layer should move first; the
// workloads then say whether the end-to-end metric followed.
type probe struct {
	metric string
	iters  int // calls per repetition at full scale
	// run builds a fresh instance, makes iters calls and returns the host
	// time of the calls alone and how many units (calls, pages, MiB) they
	// covered.
	run func(iters int) (elapsed time.Duration, units float64, err error)
}

// probeReps repetitions of each probe; the metric is their midmean.
const probeReps = 7

var pageBuf = make([]byte, aurora.PageSize)

// mcDirtyPages is about what one 10 ms interval of ETC traffic dirties in
// the memcached image: the shape the vm probes shadow and collapse.
const mcDirtyPages = 1460

var probes = []probe{
	{"vm.write_hit_ns", 200000, func(n int) (time.Duration, float64, error) {
		_, m, va, err := probeMap(1 << 20)
		if err != nil {
			return 0, 0, err
		}
		b := []byte{1}
		if err := m.Write(va, b); err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := m.Write(va, b); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(t0), float64(n), nil
	}},
	{"vm.fault_cold_ns", 4096, func(n int) (time.Duration, float64, error) {
		_, m, va, err := probeMap(int64(n) * vm.PageSize)
		if err != nil {
			return 0, 0, err
		}
		b := []byte{1}
		t0 := time.Now()
		for pg := 0; pg < n; pg++ {
			if err := m.Write(va+uint64(pg)*vm.PageSize, b); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(t0), float64(n), nil
	}},
	{"vm.shadow_ns_per_page", 64, func(n int) (time.Duration, float64, error) {
		var total time.Duration
		for i := 0; i < n; i++ {
			sys, m, _, err := probeResident(mcDirtyPages)
			if err != nil {
				return 0, 0, err
			}
			t0 := time.Now()
			pairs := vm.SystemShadow(sys, []*vm.Map{m}, nil)
			total += time.Since(t0)
			if len(pairs) != 1 {
				return 0, 0, fmt.Errorf("system shadow made %d pairs, want 1", len(pairs))
			}
		}
		return total, float64(n) * mcDirtyPages, nil
	}},
	{"vm.collapse_ns_per_page", 64, func(n int) (time.Duration, float64, error) {
		// The continuous-checkpoint cycle: dirty an interval's pages,
		// shadow, collapse the interval before. The first two rounds only
		// build the chain a collapse needs.
		sys, m, va, err := probeResident(mcDirtyPages)
		if err != nil {
			return 0, 0, err
		}
		var total time.Duration
		var moved int
		var prev *vm.Object
		b := []byte{1}
		for i := 0; i < n+2; i++ {
			for pg := uint64(0); pg < mcDirtyPages; pg++ {
				if err := m.Write(va+pg*vm.PageSize, b); err != nil {
					return 0, 0, err
				}
			}
			pairs := vm.SystemShadow(sys, []*vm.Map{m}, nil)
			if prev != nil && prev.Backer() != nil && prev.ShadowCount() == 1 {
				t0 := time.Now()
				moved += vm.CollapseAurora(pairs[0].Frozen, prev)
				total += time.Since(t0)
			}
			prev = pairs[0].Frozen
		}
		return total, float64(moved), nil
	}},
	{"mem.alloc_free_ns", 200000, func(n int) (time.Duration, float64, error) {
		pm := mem.New(0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			pm.Free(pm.MustAlloc())
		}
		return time.Since(t0), float64(n), nil
	}},

	{"kern.pipe_roundtrip_ns", 100000, func(n int) (time.Duration, float64, error) {
		m, err := aurora.NewMachine(aurora.Config{StorageBytes: 64 << 20})
		if err != nil {
			return 0, 0, err
		}
		p := m.Spawn("pipe")
		r, w, err := p.Pipe()
		if err != nil {
			return 0, 0, err
		}
		msg, got := make([]byte, 64), make([]byte, 64)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := p.Write(w, msg); err != nil {
				return 0, 0, err
			}
			if _, err := p.Read(r, got); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(t0), float64(n), nil
	}},
	{"kern.socket_setup_ns", memcachedConns, func(n int) (time.Duration, float64, error) {
		// One memcached connection: client socket, bind, connect, accept.
		m, err := aurora.NewMachine(aurora.Config{StorageBytes: 64 << 20})
		if err != nil {
			return 0, 0, err
		}
		srv, cli := m.Spawn("server"), m.Spawn("client")
		lfd, err := srv.Socket(aurora.SockTCP)
		if err != nil {
			return 0, 0, err
		}
		if err := srv.Bind(lfd, "10.0.0.1:11211"); err != nil {
			return 0, 0, err
		}
		if err := srv.Listen(lfd); err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			cfd, err := cli.Socket(aurora.SockTCP)
			if err != nil {
				return 0, 0, err
			}
			if err := cli.Bind(cfd, fmt.Sprintf("10.0.0.%d:%d", 2+i/256, 10000+i%256)); err != nil {
				return 0, 0, err
			}
			if err := cli.Connect(cfd, "10.0.0.1:11211"); err != nil {
				return 0, 0, err
			}
			if _, err := srv.Accept(lfd); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(t0), float64(n), nil
	}},

	{"objstore.writepages_ns_per_page", 64, func(n int) (time.Duration, float64, error) {
		// One flush job of the memcached interval: a batch of whole pages.
		s, oid, err := probeStore()
		if err != nil {
			return 0, 0, err
		}
		const batch = 256
		writes := make([]objstore.PageWrite, batch)
		var total time.Duration
		for i := 0; i < n; i++ {
			for j := range writes {
				writes[j] = objstore.PageWrite{Pg: int64((i*batch + j) % 8192), Data: pageBuf}
			}
			t0 := time.Now()
			if _, err := s.WritePages(oid, writes); err != nil {
				return 0, 0, err
			}
			total += time.Since(t0)
			if i%8 == 7 { // keep the store from filling with uncommitted deltas
				if _, err := s.Checkpoint(); err != nil {
					return 0, 0, err
				}
				s.ReleaseCheckpointsBefore(s.Epoch())
			}
		}
		return total, float64(n) * batch, nil
	}},
	{"objstore.checkpoint_64dirty_ns", 256, func(n int) (time.Duration, float64, error) {
		s, oid, err := probeStore()
		if err != nil {
			return 0, 0, err
		}
		var total time.Duration
		for i := 0; i < n; i++ {
			for pg := int64(0); pg < 64; pg++ {
				if err := s.WritePage(oid, pg, pageBuf); err != nil {
					return 0, 0, err
				}
			}
			t0 := time.Now()
			if _, err := s.Checkpoint(); err != nil {
				return 0, 0, err
			}
			total += time.Since(t0)
			if i%32 == 31 {
				s.ReleaseCheckpointsBefore(s.Epoch())
			}
		}
		return total, float64(n), nil
	}},
	{"objstore.journal_append_4k_ns", 20000, func(n int) (time.Duration, float64, error) {
		// RocksDB's group-committed WAL record: 8 puts of ~450 bytes.
		s, _, err := probeStore()
		if err != nil {
			return 0, 0, err
		}
		j, err := s.CreateJournal(s.NewOID(), 9, 1<<30)
		if err != nil {
			return 0, 0, err
		}
		payload := make([]byte, 4000)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := j.Append(payload); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(t0), float64(n), nil
	}},
	{"objstore.walcommit_ns", 4000, func(n int) (time.Duration, float64, error) {
		// wal-commit's delta: four pages, one frame.
		s, oid, err := probeStore()
		if err != nil {
			return 0, 0, err
		}
		var total time.Duration
		for i := 0; i < n; i++ {
			for k := 0; k < walTouched; k++ {
				if err := s.WritePage(oid, int64((i*walTouched+k)%4096), pageBuf); err != nil {
					return 0, 0, err
				}
			}
			t0 := time.Now()
			_, err := s.WALCommit()
			total += time.Since(t0)
			if errors.Is(err, objstore.ErrWALFull) {
				_, err = s.Checkpoint() // the fold that empties the ring
			}
			if err != nil {
				return 0, 0, err
			}
		}
		return total, float64(n), nil
	}},
	{"objstore.readpage_ns", 50000, func(n int) (time.Duration, float64, error) {
		s, oid, err := probeStore()
		if err != nil {
			return 0, 0, err
		}
		const pages = 4096
		for pg := int64(0); pg < pages; pg++ {
			if err := s.WritePage(oid, pg, pageBuf); err != nil {
				return 0, 0, err
			}
		}
		if _, err := s.Checkpoint(); err != nil {
			return 0, 0, err
		}
		buf := make([]byte, objstore.BlockSize)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := s.ReadPage(oid, int64(i*7%pages), buf); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(t0), float64(n), nil
	}},

	{"device.submit_write_4k_ns", 100000, func(n int) (time.Duration, float64, error) {
		d := probeStripe()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := d.SubmitWrite(pageBuf, int64(i%65536)*aurora.PageSize); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(t0), float64(n), nil
	}},
	{"device.submit_writev_64k_ns", 20000, func(n int) (time.Duration, float64, error) {
		d := probeStripe()
		bufs := make([][]byte, 16)
		for i := range bufs {
			bufs[i] = pageBuf
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := d.SubmitWritev(bufs, int64(i%4096)*64<<10); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(t0), float64(n), nil
	}},
	{"device.submit_read_4k_ns", 100000, func(n int) (time.Duration, float64, error) {
		d := probeStripe()
		for i := 0; i < 4096; i++ {
			if _, err := d.SubmitWrite(pageBuf, int64(i)*aurora.PageSize); err != nil {
				return 0, 0, err
			}
		}
		buf := make([]byte, aurora.PageSize)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := d.SubmitRead(buf, int64(i%4096)*aurora.PageSize); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(t0), float64(n), nil
	}},

	{"net.transfer_clean_ns_per_mib", 32, func(n int) (time.Duration, float64, error) {
		return probeTransfer(n, net.Plan{}, net.Plan{})
	}},
	{"net.transfer_drop2_ns_per_mib", 32, func(n int) (time.Duration, float64, error) {
		return probeTransfer(n, net.Plan{Seed: 1, DropProb: dropProb}, net.Plan{Seed: 2, DropProb: dropProb})
	}},

	{"placement.tick_idle_ns", 20000, func(n int) (time.Duration, float64, error) {
		clk, c, err := probeFleet(4, placement.Config{})
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			clk.Advance(time.Millisecond)
			c.Tick()
		}
		return time.Since(t0), float64(n), nil
	}},

	{"rec.seal_open_ns", 200000, func(n int) (time.Duration, float64, error) {
		// A record the size of a serialised socket: a few words, a name
		// and a short buffer.
		body := make([]byte, 200)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			e := rec.NewEncoder()
			e.U64(uint64(i))
			e.U32(7)
			e.Str("10.0.0.1:11211")
			e.Bytes(body)
			d, err := rec.NewDecoder(e.Seal())
			if err != nil {
				return 0, 0, err
			}
			if d.U64() != uint64(i) || d.U32() != 7 || d.Str() == "" || len(d.Bytes()) != len(body) || d.Err() != nil {
				return 0, 0, fmt.Errorf("rec: record did not read back")
			}
		}
		return time.Since(t0), float64(n), nil
	}},
}

func probeMap(size int64) (*vm.System, *vm.Map, uint64, error) {
	sys := vm.NewSystem(mem.New(0), clock.NewVirtual(), clock.DefaultCosts())
	m := sys.NewMap()
	va, err := m.Map(sys.NewObject(vm.Anonymous, size), 0, size, vm.ProtRead|vm.ProtWrite, false)
	return sys, m, va, err
}

// probeResident is probeMap with every one of pages pages touched.
func probeResident(pages int) (*vm.System, *vm.Map, uint64, error) {
	sys, m, va, err := probeMap(int64(pages) * vm.PageSize)
	if err != nil {
		return nil, nil, 0, err
	}
	for pg := 0; pg < pages; pg++ {
		if err := m.Write(va+uint64(pg)*vm.PageSize, []byte{1}); err != nil {
			return nil, nil, 0, err
		}
	}
	return sys, m, va, nil
}

func probeStripe() *device.Stripe {
	return device.NewStripe(clock.NewVirtual(), clock.DefaultCosts(), 4, 64<<10, 1<<30)
}

func probeStore() (*objstore.Store, objstore.OID, error) {
	clk := clock.NewVirtual()
	costs := clock.DefaultCosts()
	s, err := objstore.Format(device.NewStripe(clk, costs, 4, 64<<10, 1<<30), clk, costs)
	if err != nil {
		return nil, 0, err
	}
	oid := s.NewOID()
	s.Ensure(oid, 2)
	return s, oid, nil
}

// probeTransfer ships n payloads of 1 MiB (one replica-failover delta)
// through a fresh connection.
func probeTransfer(n int, fwd, rev net.Plan) (time.Duration, float64, error) {
	clk := clock.NewVirtual()
	conn := net.NewConn(net.NewPipe(clk, net.DefaultParams(), fwd, rev), clk, net.Config{}, nil)
	payload := make([]byte, 1<<20)
	t0 := time.Now()
	for i := 1; i <= n; i++ {
		if _, err := conn.Transfer(uint64(i), payload); err != nil {
			return 0, 0, err
		}
		if _, ok := conn.Take(uint64(i)); !ok {
			return 0, 0, fmt.Errorf("net: transfer %d done but not takeable", i)
		}
	}
	return time.Since(t0), float64(n), nil
}

// probeFleet is n machines on one clock under one coordinator.
func probeFleet(n int, cfg placement.Config) (*clock.Virtual, *placement.Coordinator, error) {
	clk := clock.NewVirtual()
	c := placement.New(clk, cfg)
	for i := 0; i < n; i++ {
		m, err := aurora.NewMachine(aurora.Config{StorageBytes: 64 << 20, Clock: clk})
		if err != nil {
			return nil, nil, err
		}
		if _, err := c.AddMachine(fmt.Sprintf("aur%d", i), m); err != nil {
			return nil, nil, err
		}
	}
	return clk, c, nil
}

// probeFailoverDetect is the virtual time from killing a group's primary to
// the coordinator's failover event, at 2 ms heartbeats.
func probeFailoverDetect() (time.Duration, error) {
	clk, c, err := probeFleet(3, placement.Config{SyncEvery: 2 * time.Millisecond, HeartbeatEvery: 2 * time.Millisecond})
	if err != nil {
		return 0, err
	}
	node, _ := c.Node("aur0")
	p := node.M.Spawn("app")
	va, err := p.Mmap(1<<20, aurora.ProtRead|aurora.ProtWrite, false)
	if err != nil {
		return 0, err
	}
	if _, err := node.M.Attach("app", p); err != nil {
		return 0, err
	}
	work := func() error { return p.WriteMem(va, []byte{1}) }
	if _, err := c.Manage("app", "aur0", work); err != nil {
		return 0, err
	}
	for i := 0; i < 10; i++ {
		if err := work(); err != nil {
			return 0, err
		}
		clk.Advance(time.Millisecond)
		c.Tick()
	}
	if err := c.KillMachine("aur0"); err != nil {
		return 0, err
	}
	killed := clk.Now()
	for i := 0; i < 1000; i++ {
		clk.Advance(500 * time.Microsecond)
		for _, e := range c.Tick() {
			if e.Kind == placement.EvFailover {
				return e.At - killed, e.Err
			}
		}
	}
	return 0, fmt.Errorf("placement: no failover within 500 virtual ms of the kill")
}

// runProbes runs every probe and returns its metric. Each repetition is a
// span of the traced run.
func runProbes(x *run) (map[string]value, error) {
	out := make(map[string]value, len(probes)+1)
	for _, p := range probes {
		iters := p.iters / x.sz.probeScale
		if iters < 1 {
			iters = 1
		}
		var perUnit []float64
		for r := 0; r < probeReps; r++ {
			x.cal.tick()
			var d time.Duration
			var units float64
			t0 := hostNow()
			err := x.timed("probe."+p.metric, nil, func() (err error) {
				d, units, err = p.run(iters)
				return err
			})
			t1 := hostNow()
			x.cal.tick()
			if err == nil && units > 0 {
				perUnit = append(perUnit, float64(d)/units/x.cal.slowdown(float64(t0), float64(t1)))
			}
			if err != nil {
				return out, fmt.Errorf("probe %s: %w", p.metric, err)
			}
			if err := x.expired(); err != nil {
				return out, err
			}
		}
		out[p.metric] = value{midmean(perUnit), len(perUnit), "midmean of repetitions", "probe"}
	}
	var detect time.Duration
	err := x.timed("probe.placement.failover_detect_virt_us", nil, func() (err error) {
		detect, err = probeFailoverDetect()
		return
	})
	if err != nil {
		return out, fmt.Errorf("probe placement.failover_detect_virt_us: %w", err)
	}
	out["placement.failover_detect_virt_us"] = value{float64(detect) / 1e3, 1, "total", "probe"}
	return out, nil
}

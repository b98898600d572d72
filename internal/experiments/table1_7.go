package experiments

import (
	"fmt"
	"time"

	"aurora"
	"aurora/internal/apps/redis"
	"aurora/internal/criu"
	"aurora/internal/device"
	"aurora/internal/kern"
	"aurora/internal/sls"
)

// Table1Result is the CRIU checkpoint breakdown for a Redis instance
// (paper Table 1: OS 49 ms, memory 413 ms, stop 462 ms, IO 350 ms for
// 500 MB).
type Table1Result struct {
	WorkingSet int64
	CRIU       criu.Stats
}

// Render prints the table.
func (r Table1Result) Render() string {
	return "Table 1: CRIU checkpoint breakdown, " + fmtBytes(r.WorkingSet) + " Redis\n" +
		table(
			[]string{"Type", "CRIU"},
			[][]string{
				{"OS State Copy", fmtDur(r.CRIU.OSStateTime)},
				{"Memory Copy", fmtDur(r.CRIU.MemoryTime)},
				{"Total Stop Time", fmtDur(r.CRIU.TotalStopTime)},
				{"IO Write", fmtDur(r.CRIU.IOWriteTime)},
			},
		)
}

// buildRedis boots a machine holding a Redis instance with roughly wsBytes
// of resident data.
func buildRedis(wsBytes int64) (*aurora.Machine, *redis.Redis, error) {
	m, err := aurora.NewMachine(aurora.Config{StorageBytes: 8 << 30})
	if err != nil {
		return nil, nil, err
	}
	r, err := redis.New(m.K, wsBytes+wsBytes/4)
	if err != nil {
		return nil, nil, err
	}
	const valSize = 4096 - 64
	val := make([]byte, valSize)
	n := wsBytes / valSize
	for i := int64(0); i < n; i++ {
		if err := r.Set(fmt.Sprintf("key:%012d", i), val); err != nil {
			return nil, nil, err
		}
	}
	return m, r, nil
}

// criuRun dumps a fresh Redis of ws bytes with CRIU to an image device of
// its own.
func criuRun(ws int64) (criu.Stats, error) {
	m, r, err := buildRedis(ws)
	if err != nil {
		return criu.Stats{}, err
	}
	return criu.New(m.K, device.New(m.Clock, m.Costs, 4<<30)).Checkpoint([]*kern.Proc{r.Proc})
}

// redisBytes is the working set of Tables 1 and 7. The Quick one stays large
// enough that memory copy dominates CRIU's fixed OS-state cost, preserving
// the tables' structure.
func redisBytes(scale Scale) int64 {
	if scale == Quick {
		return 96 << 20
	}
	return 500 << 20
}

// Table1 runs the CRIU breakdown.
func Table1(scale Scale) (Table1Result, error) {
	ws := redisBytes(scale)
	st, err := criuRun(ws)
	return Table1Result{WorkingSet: ws, CRIU: st}, err
}

// Table7Result compares Aurora, CRIU, and Redis's RDB (paper Table 7).
type Table7Result struct {
	WorkingSet int64

	AuroraOS    time.Duration
	AuroraMem   time.Duration
	AuroraStop  time.Duration
	AuroraWrite time.Duration

	CRIU criu.Stats

	RDBStop  time.Duration
	RDBWrite time.Duration
}

// Render prints the table.
func (r Table7Result) Render() string {
	na := "N/A"
	return "Table 7: full-checkpoint comparison, " + fmtBytes(r.WorkingSet) + " Redis\n" +
		table(
			[]string{"Type", "Aurora", "CRIU", "RDB"},
			[][]string{
				{"OS State", fmtDur(r.AuroraOS), fmtDur(r.CRIU.OSStateTime), na},
				{"Memory", fmtDur(r.AuroraMem), fmtDur(r.CRIU.MemoryTime), na},
				{"Total Stop Time", fmtDur(r.AuroraStop), fmtDur(r.CRIU.TotalStopTime), fmtDur(r.RDBStop)},
				{"IO Write", fmtDur(r.AuroraWrite), fmtDur(r.CRIU.IOWriteTime), fmtDur(r.RDBWrite)},
			},
		)
}

// Table7 runs all three checkpointers over identical Redis instances.
func Table7(scale Scale) (Table7Result, error) {
	ws := redisBytes(scale)
	out := Table7Result{WorkingSet: ws}

	// Aurora full checkpoint.
	m, r, err := buildRedis(ws)
	if err != nil {
		return out, err
	}
	g, err := m.Attach("redis", r.Proc)
	if err != nil {
		return out, err
	}
	st, err := g.Checkpoint(sls.CkptFull)
	if err != nil {
		return out, err
	}
	out.AuroraOS = st.OSTime
	out.AuroraMem = st.MemTime
	out.AuroraStop = st.StopTime
	before := m.Clock.Now()
	if err := m.Store.WaitDurable(st.Epoch); err != nil {
		return out, err
	}
	// DurableAt measures from submission; report flush duration.
	out.AuroraWrite = max(st.DurableAt-before, 0)

	if out.CRIU, err = criuRun(ws); err != nil {
		return out, err
	}

	// Redis RDB (fork-based BGSAVE).
	m, r, err = buildRedis(ws)
	if err != nil {
		return out, err
	}
	rdb, err := r.BGSave(device.New(m.Clock, m.Costs, 4<<30))
	if err != nil {
		return out, err
	}
	out.RDBStop = rdb.StopTime
	out.RDBWrite = rdb.SaveTime
	return out, nil
}

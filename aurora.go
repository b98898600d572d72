// Package aurora is the public API of the Aurora single-level-store
// reproduction: a simulated operating system that provides persistence as
// an OS service, after "The Aurora Single Level Store Operating System"
// (SOSP 2021).
//
// A Machine is one simulated computer: a virtual clock, four striped NVMe
// devices, the Aurora object store and file system, a POSIX kernel, and the
// SLS orchestrator. Applications are processes in that kernel; their memory
// lives behind a simulated MMU, which is what lets the store checkpoint
// them continuously and restore them after a crash:
//
//	m, _ := aurora.NewMachine(aurora.Defaults())
//	p := m.Spawn("myapp")
//	g, _ := m.Attach("myapp", p)          // sls attach
//	... the app runs; g checkpoints it every 10 ms ...
//	m2, _ := m.Crash()                    // power loss + reboot
//	g2, _, _ := m2.Restore("myapp")       // the app resumes
//
// The types behind processes, groups, journals, and stats are aliased from
// the implementation packages so the whole surface is reachable from this
// package.
package aurora

import (
	"errors"
	"fmt"
	"io"
	"time"

	"aurora/internal/audit"
	"aurora/internal/clock"
	"aurora/internal/device"
	"aurora/internal/faultdev"
	"aurora/internal/flight"
	"aurora/internal/kern"
	"aurora/internal/mem"
	"aurora/internal/net"
	"aurora/internal/objstore"
	"aurora/internal/sls"
	"aurora/internal/slsfs"
	"aurora/internal/telemetry"
	"aurora/internal/trace"
	"aurora/internal/vm"
)

// Re-exported types: the public names for the system's objects.
type (
	// Proc is a simulated process.
	Proc = kern.Proc
	// Thread is a simulated kernel thread.
	Thread = kern.Thread
	// CPUState is the per-thread register file.
	CPUState = kern.CPUState
	// Kernel is the simulated POSIX kernel.
	Kernel = kern.Kernel
	// Group is a consistency group — the unit of atomic persistence.
	Group = sls.Group
	// Orchestrator is the SLS core.
	Orchestrator = sls.Orchestrator
	// CheckpointKind selects how much a checkpoint captures.
	CheckpointKind = sls.CheckpointKind
	// CheckpointStats reports one checkpoint.
	CheckpointStats = sls.CheckpointStats
	// RestoreStats reports one restore.
	RestoreStats = sls.RestoreStats
	// Journal is an sls_journal write-ahead log.
	Journal = objstore.Journal
	// Tracer is a machine's one observer: the metric store (counters,
	// gauges, histograms) and, under Config.Trace, the span timeline.
	Tracer = trace.Tracer
	// Replica is a warm standby of a group on another machine.
	Replica = sls.Replica
	// NetParams describe one direction of a simulated replication wire.
	NetParams = net.Params
	// NetPlan is a deterministic seeded wire fault scenario.
	NetPlan = net.Plan
	// NetFault arms one fault at a wire transmission index.
	NetFault = net.Fault
	// NetConn is a framed, ack-windowed replication connection.
	NetConn = net.Conn
	// Epoch numbers checkpoints in the store.
	Epoch = objstore.Epoch
	// OID names an object in the store.
	OID = objstore.OID
	// Signal is a POSIX signal number.
	Signal = kern.Signal
	// Prot is a memory protection mask.
	Prot = vm.Prot
	// FlightEvent is one entry in the crash flight recorder.
	FlightEvent = flight.Event
	// AuditReport is the outcome of one invariant-watchdog pass.
	AuditReport = audit.Report
	// AuditViolation is one broken invariant found by the watchdog.
	AuditViolation = audit.Violation
	// FaultPlan is a deterministic storage fault scenario (power cut, torn
	// write, in-flight loss, bit-rot) armed on a machine's fault device.
	FaultPlan = faultdev.Plan
	// FaultDev is the fault-injecting device interposed between the store
	// and the disks when a machine is built with Config.Fault.
	FaultDev = faultdev.Dev
)

// Re-exported constants.
const (
	ProtRead  = vm.ProtRead
	ProtWrite = vm.ProtWrite
	ProtExec  = vm.ProtExec

	CkptIncremental = sls.CkptIncremental
	CkptFull        = sls.CkptFull
	CkptMemOnly     = sls.CkptMemOnly
	CkptWAL         = sls.CkptWAL

	RestoreEager       = sls.RestoreFull
	RestoreLazy        = sls.RestoreLazy
	RestoreSpeculative = sls.RestoreSpeculative

	SIGCHLD    = kern.SIGCHLD
	SIGRESTORE = kern.SIGRESTORE
	SIGTERM    = kern.SIGTERM
	SIGUSR1    = kern.SIGUSR1

	ORead     = kern.ORead
	OWrite    = kern.OWrite
	ONonblock = kern.ONonblock
	OAppend   = kern.OAppend

	SockUnix = kern.KindSocketUnix
	SockUDP  = kern.KindSocketUDP
	SockTCP  = kern.KindSocketTCP

	PageSize = vm.PageSize
)

// Config sizes a Machine.
type Config struct {
	// Name identifies the machine in fleet telemetry: it seeds the
	// trace-context source id replication frames carry and labels the
	// machine's process in the merged fleet timeline. Optional — an
	// unnamed machine ships an empty trace-context.
	Name string
	// StorageBytes is the total capacity of the striped store devices.
	StorageBytes int64
	// Costs overrides the calibrated cost model; nil uses DefaultCosts.
	Costs *clock.Costs
	// Trace and Telemetry each give the machine its observer
	// (Machine.Tracer), wired through the devices, the store, the SLS
	// orchestrator and the wire: every layer's counters, gauges and
	// histograms — stop time, durable/WAL windows, restore
	// time-to-first-op, replication lag — accumulate in its one store,
	// recorded once at the source. With both off (the default) there is no
	// observer and each hook site costs one nil check.
	//
	// Trace decides whether the observer also retains the event timeline:
	// spans, instants and counter samples, for Tracer.WriteChrome.
	Trace bool
	// Telemetry decides whether the store is sampled into time series
	// (Machine.Metrics, internal/telemetry) for SLO watches, fleet
	// aggregation and the Prometheus/JSON exports.
	Telemetry bool
	// Net, when non-nil, routes ReplicateTo and MigrateTo over a simulated
	// lossy network instead of the direct in-process copy. Each call builds
	// a fresh connection from this description.
	Net *NetConfig
	// Clock, when non-nil, runs the machine on an existing virtual timeline
	// instead of a fresh one. Fleet scenarios share one clock across every
	// machine so cross-machine event ordering ("power-cut machine 2 at
	// t=5s") is well-defined and replayable.
	Clock *clock.Virtual
	// Fault, when non-nil, interposes a deterministic fault-injection
	// device (internal/faultdev) between the store and the striped disks.
	// Arm it disarmed (CutAtSubmit: -1) and drive faults later through
	// PowerCut / BitRot, or arm a cut up front for crash experiments. The
	// wrapper rides across Crash so its crash log and media rot persist
	// like the black box of a real machine.
	Fault *FaultPlan
}

// NetConfig describes the simulated replication wire between machines:
// link characteristics, per-direction fault plans, and protocol tuning.
// The zero value is a clean default link.
type NetConfig struct {
	// Params sets latency/bandwidth/jitter; zero selects the paper's
	// testbed interconnect (15 µs one-way, ~1 GB/s).
	Params NetParams
	// Fwd and Rev are the fault plans for the data and ack directions.
	Fwd, Rev NetPlan
	// Conn tunes the transfer protocol (window, frame size, retries);
	// zero values select defaults.
	Conn net.Config
}

// Defaults returns the paper's testbed configuration scaled for a laptop.
func Defaults() Config {
	return Config{StorageBytes: 8 << 30}
}

// Machine is one simulated computer.
type Machine struct {
	Clock *clock.Virtual
	Costs *clock.Costs
	Disk  *device.Stripe
	Store *objstore.Store
	FS    *slsfs.FS
	K     *kern.Kernel
	SLS   *sls.Orchestrator
	// Tracer is the machine's observer, non-nil when it was built with
	// Config.Trace or Config.Telemetry: read a number with
	// Tracer.CounterValue / Quantile / Metrics, and export what a
	// Config.Trace machine recorded with Tracer.WriteChrome / Rollup. It
	// rides across Crash, so restore spans and counts land beside the
	// checkpoints before the cut.
	Tracer *trace.Tracer
	// Net is the replication wire description from Config.Net; nil selects
	// the direct in-process path.
	Net *NetConfig
	// Flight is the machine's crash flight recorder: a bounded ring of
	// structured events (checkpoints, flushes, device barriers, power
	// cuts, replication ships, restores) persisted into the store on
	// every checkpoint, so a rebooted machine can read the last moments
	// before a crash. Always on — recording is a few stores per event.
	Flight *flight.Recorder
	// Fault is the fault-injection device from Config.Fault; nil on
	// machines built without one. It persists across Crash — the crash
	// log and armed bit-rot are media properties, not volatile state.
	Fault *FaultDev
	// Metrics is the sampler over Tracer's store from Config.Telemetry
	// (time series, JSON snapshot, Prometheus text); nil on machines built
	// without it. It holds no numbers of its own. Like the tracer it rides
	// across Crash, so a series continues through the reboot.
	Metrics *telemetry.Registry

	cfg     Config
	auditor *audit.Auditor
	wd      *audit.Watchdog
	slo     *telemetry.Watch
}

// NewMachine boots a machine with freshly formatted storage.
func NewMachine(cfg Config) (*Machine, error) {
	return build(cfg, nil, nil, true, nil, nil)
}

// build assembles a machine; when disk is non-nil the store is recovered
// from it instead of formatted, and the timeline continues on clk. A
// non-nil tr carries an existing observer across a crash so the metric
// store and the recorded timeline span reboots; otherwise cfg.Trace or
// cfg.Telemetry creates a fresh one. A non-nil fd carries an existing fault
// device across a crash (its crash log and rot are media state); otherwise
// cfg.Fault interposes a fresh one.
func build(cfg Config, disk *device.Stripe, clk *clock.Virtual, format bool, tr *trace.Tracer, fd *FaultDev) (*Machine, error) {
	// The paper's testbed: four devices striped at 64 KiB, memory unlimited.
	const devices, stripeUnit, memoryBytes = 4, 64 << 10, 0
	if cfg.StorageBytes == 0 {
		cfg.StorageBytes = 8 << 30
	}
	costs := cfg.Costs
	if costs == nil {
		costs = clock.DefaultCosts()
	}
	if clk == nil {
		clk = cfg.Clock
	}
	if clk == nil {
		clk = clock.NewVirtual()
	}
	if disk == nil {
		disk = device.NewStripe(clk, costs, devices, stripeUnit, cfg.StorageBytes/devices)
	}
	if tr == nil && cfg.Trace {
		tr = trace.New(clk)
	} else if tr == nil && cfg.Telemetry {
		tr = trace.NewMetricsOnly(clk)
	}
	disk.SetTracer(tr)
	// The flight ring is volatile state: a boot (or reboot) starts a fresh
	// one. The pre-crash tail survives separately, as the object the store
	// persisted on the last completed checkpoint — see RecoveredFlight.
	fl := flight.NewRecorder(0)
	disk.SetFlight(fl)

	// The store reads and writes through the fault device when one is
	// configured, so armed cuts, tears, and rot land on real store IO.
	var bdev objstore.BlockDev = disk
	if fd == nil && cfg.Fault != nil {
		fd = faultdev.New(disk, clk, *cfg.Fault)
	}
	if fd != nil {
		fd.SetTracer(tr)
		fd.SetFlight(fl)
		bdev = fd
	}

	var (
		store *objstore.Store
		err   error
	)
	if format {
		store, err = objstore.Format(bdev, clk, costs)
	} else {
		// The tracer goes in before the first read, so recovery's own spans
		// (objstore "recover") share a trace with the sls restore after it.
		store, err = objstore.RecoverTraced(bdev, clk, costs, tr)
	}
	if err != nil {
		return nil, err
	}
	var fs *slsfs.FS
	if format {
		fs, err = slsfs.Format(store, clk, costs)
	} else {
		fs, err = slsfs.Recover(store, clk, costs)
	}
	if err != nil {
		return nil, err
	}
	store.SetTracer(tr)
	store.SetFlight(fl)
	vmsys := vm.NewSystem(mem.New(memoryBytes), clk, costs)
	k := kern.New(clk, costs, vmsys, fs)
	m := &Machine{
		Clock:  clk,
		Costs:  costs,
		Disk:   disk,
		Store:  store,
		FS:     fs,
		K:      k,
		SLS:    sls.New(k, store),
		Tracer: tr,
		Flight: fl,
		Fault:  fd,
		cfg:    cfg,
	}
	if cfg.Telemetry {
		m.Metrics = telemetry.New(tr)
	}
	m.SLS.Tracer = tr
	m.Net = cfg.Net
	return m, nil
}

// RecoveredFlight returns the pre-crash flight timeline: the event ring the
// previous incarnation of this machine persisted on its last completed
// checkpoint. ok is false on a freshly formatted machine that has never
// checkpointed. The returned events are the forensic record of what the
// system was doing in the moments leading up to its final commit.
func (m *Machine) RecoveredFlight() (evs []FlightEvent, seq uint64, ok bool, err error) {
	return m.Store.RecoveredFlight()
}

// Audit runs the invariant watchdog once over the live machine — VM shadow
// chains and page tables, kernel descriptor tables, the store's allocation
// maps, group and replication epochs — and returns the report. Violations
// are also recorded as flight events and trace counters. The auditor keeps
// memory between calls (epoch monotonicity is a between-passes invariant).
func (m *Machine) Audit() AuditReport {
	if m.auditor == nil {
		m.auditor = &audit.Auditor{
			Store: m.Store, K: m.K, O: m.SLS,
			Fl: m.Flight, Tr: m.Tracer, Clk: m.Clock, SLO: m.slo,
		}
	}
	return m.auditor.Run()
}

// StartWatchdog arms periodic auditing: RunPeriodic calls the watchdog
// between workload iterations and fails fast on any violation. interval <= 0
// selects the default cadence.
func (m *Machine) StartWatchdog(interval time.Duration) {
	m.Audit() // force the auditor into existence and take a baseline
	m.wd = &audit.Watchdog{A: m.auditor, Interval: interval}
}

// NewConn builds a replication connection over this machine's clock from a
// wire description (nil selects Machine.Net, and a nil result means the
// direct path). Faults injected by the plans land on the machine's tracer
// when tracing is enabled.
func (m *Machine) NewConn(nc *NetConfig) *NetConn {
	if nc == nil {
		nc = m.Net
	}
	if nc == nil {
		return nil
	}
	params := nc.Params
	if params == (NetParams{}) {
		params = net.DefaultParams()
	}
	pipe := net.NewPipe(m.Clock, params, nc.Fwd, nc.Rev)
	conn := net.NewConn(pipe, m.Clock, nc.Conn, m.Tracer)
	conn.SetFlight(m.Flight)
	if m.cfg.Name != "" {
		conn.SetSource(trace.MachineID(m.cfg.Name))
	}
	return conn
}

// Name returns the machine's fleet identity from Config.Name.
func (m *Machine) Name() string { return m.cfg.Name }

// AttachSLO points the machine's auditor at an SLO watch: the sls.slo
// audit family cross-checks the watch's breach log against the observer's
// slo.breaches counter on every audit pass.
func (m *Machine) AttachSLO(w *telemetry.Watch) {
	m.slo = w
	if m.auditor != nil {
		m.auditor.SLO = w
	}
}

// Crash simulates power loss and reboot: all volatile state (kernel,
// processes, memory) is gone; the returned machine recovered its store
// from the last complete checkpoint on the same disks. The virtual
// timeline continues across the crash. If the machine had an observer, the
// rebooted machine records into the same one — restore spans land on the
// same timeline as the checkpoints that made them possible, and its series
// carry on.
func (m *Machine) Crash() (*Machine, error) {
	if m.Fault != nil && m.Fault.Crashed() {
		m.Fault.Reopen()
	}
	cfg := m.cfg
	cfg.Costs = m.Costs
	cfg.Net = m.Net
	m2, err := build(cfg, m.Disk, m.Clock, false, m.Tracer, m.Fault)
	if err != nil {
		return nil, err
	}
	m2.Metrics = m.Metrics
	return m2, nil
}

// PowerCut forces a power failure through the fault device: the machine's
// next storage write is the cut (optionally landing only a torn sector
// prefix, optionally losing the in-flight queue window), all volatile
// state dies, and the returned machine is the post-reboot recovery from
// the last complete checkpoint. seed feeds the torn-prefix PRNG, so the
// same seed replays the identical failure. The cut and tear land in the
// fault device's crash log (and any committed pre-crash flight ring
// survives in the store), so the rebooted machine can explain which write
// killed it. Requires Config.Fault.
func (m *Machine) PowerCut(seed int64, torn, dropInFlight bool) (*Machine, error) {
	if m.Fault == nil {
		return nil, fmt.Errorf("aurora: PowerCut needs a machine built with Config.Fault")
	}
	prev := m.Fault.Plan()
	m.Fault.Arm(FaultPlan{
		Seed:         seed,
		CutAtSubmit:  m.Fault.Submits(),
		Torn:         torn,
		DropInFlight: dropInFlight,
		RotOffsets:   prev.RotOffsets, // media decay outlives the controller
	})
	// A store checkpoint always writes (flight ring, then superblock), so
	// it reliably drives the armed cut.
	if _, err := m.Store.Checkpoint(); err == nil {
		return nil, fmt.Errorf("aurora: power cut armed but checkpoint committed without a write")
	} else if !errors.Is(err, faultdev.ErrPowerCut) {
		return nil, fmt.Errorf("aurora: power cut: %w", err)
	}
	return m.Crash()
}

// BitRot arms persistent read bit-rot at the given device byte offsets:
// every read covering an offset comes back with a flipped bit, modeling
// media decay. The rot survives Crash and is what the fsck scrub exists to
// catch. Requires Config.Fault.
func (m *Machine) BitRot(offsets ...int64) error {
	if m.Fault == nil {
		return fmt.Errorf("aurora: BitRot needs a machine built with Config.Fault")
	}
	plan := m.Fault.Plan()
	plan.RotOffsets = append(plan.RotOffsets, offsets...)
	m.Fault.Arm(plan)
	return nil
}

// SaveImage writes the machine's disk contents to w; BootImage brings the
// machine back from it — the persistence boundary the sls CLI uses between
// invocations.
func (m *Machine) SaveImage(w io.Writer) error { return m.Disk.Save(w) }

// BootImage loads a saved disk image and boots a machine from it,
// recovering the store from the last complete checkpoint.
func BootImage(r io.Reader, cfg Config) (*Machine, error) {
	costs := cfg.Costs
	if costs == nil {
		costs = clock.DefaultCosts()
	}
	clk := clock.NewVirtual()
	disk, err := device.LoadStripe(clk, costs, r)
	if err != nil {
		return nil, err
	}
	cfg.Costs = costs
	return build(cfg, disk, clk, false, nil, nil)
}

// PersistedGroups lists group names recorded on disk (sls ps after boot).
func (m *Machine) PersistedGroups() ([]string, error) {
	return sls.ManifestGroups(m.Store)
}

// Spawn creates a new process.
func (m *Machine) Spawn(name string) *Proc { return m.K.NewProc(name) }

// Attach creates (or reuses) a named consistency group and attaches the
// process tree rooted at p — the sls attach command.
func (m *Machine) Attach(group string, p *Proc) (*Group, error) {
	g, ok := m.SLS.GroupByName(group)
	if !ok {
		g = m.SLS.CreateGroup(group)
	}
	if err := g.Attach(p); err != nil {
		return nil, err
	}
	return g, nil
}

// Group finds a named consistency group.
func (m *Machine) Group(name string) (*Group, bool) { return m.SLS.GroupByName(name) }

// Checkpoint takes an incremental checkpoint of the named group —
// the sls checkpoint command.
func (m *Machine) Checkpoint(group string) (CheckpointStats, error) {
	g, ok := m.SLS.GroupByName(group)
	if !ok {
		return CheckpointStats{}, fmt.Errorf("aurora: no group %q", group)
	}
	return g.Checkpoint(CkptIncremental)
}

// Restore rebuilds the named group from the store's last complete
// checkpoint — the sls restore command after a crash. The rebuilt state
// passes through the invariant watchdog before being handed back: a restore
// that resurrects a broken object graph is an error, not a success.
func (m *Machine) Restore(group string) (*Group, RestoreStats, error) {
	return m.restore(group, RestoreEager)
}

// RestoreLazily is Restore with on-demand page loading.
func (m *Machine) RestoreLazily(group string) (*Group, RestoreStats, error) {
	return m.restore(group, RestoreLazy)
}

// RestoreSpeculatively rebuilds every object of the named group first — the
// stats' TimeToFirstOp is the span until the group could execute — and then
// installs its pages, PagesValidated of them, before it returns.
func (m *Machine) RestoreSpeculatively(group string) (*Group, RestoreStats, error) {
	return m.restore(group, RestoreSpeculative)
}

// restore is the one restore path: rebuild in the given mode, then audit.
func (m *Machine) restore(group string, mode sls.RestoreMode) (*Group, RestoreStats, error) {
	g, st, err := m.SLS.RestoreGroup(group, m.Store, mode, true)
	if err != nil {
		return g, st, err
	}
	if rep := m.Audit(); !rep.OK() {
		return g, st, fmt.Errorf("aurora: post-restore self-check failed: %s", rep)
	}
	return g, st, nil
}

// RestoreAt rebuilds the named group as of a retained checkpoint epoch —
// time-travel restore.
func (m *Machine) RestoreAt(group string, epoch Epoch) (*Group, RestoreStats, error) {
	view, err := m.Store.RestoreView(epoch)
	if err != nil {
		return nil, RestoreStats{}, err
	}
	return m.SLS.RestoreGroup(group, view, RestoreEager, false)
}

// Suspend checkpoints the named group and terminates its processes; the
// application stays on disk, restorable with Restore — sls suspend.
func (m *Machine) Suspend(group string) error {
	g, ok := m.SLS.GroupByName(group)
	if !ok {
		return fmt.Errorf("aurora: no group %q", group)
	}
	return g.Suspend()
}

// MigrateTo live-migrates the named group to another machine with
// iterative pre-copy (§10): a full round, `rounds` delta rounds while the
// application runs (work is called between them), and a final short
// stop-and-copy. The group resumes on dst. With Config.Net set, every
// round ships over the simulated wire as a resumable transfer.
func (m *Machine) MigrateTo(dst *Machine, group string, rounds int, work func() error) (*Group, sls.MigrateStats, error) {
	g, ok := m.SLS.GroupByName(group)
	if !ok {
		return nil, sls.MigrateStats{}, fmt.Errorf("aurora: no group %q", group)
	}
	return g.MigrateVia(dst.SLS, rounds, work, m.NewConn(nil))
}

// ReplicateTo seeds a warm standby of the named group on dst and returns
// the replication handle (Sync ships deltas; Failover takes over). With
// Config.Net set, the seed and every sync run over the simulated wire; a
// sync that exhausts its retries stays pending on the handle and Resume
// re-ships only the unacked tail.
func (m *Machine) ReplicateTo(dst *Machine, group string) (*sls.Replica, error) {
	g, ok := m.SLS.GroupByName(group)
	if !ok {
		return nil, fmt.Errorf("aurora: no group %q", group)
	}
	return g.ReplicateToVia(dst.SLS, m.NewConn(nil))
}

// History lists restorable checkpoint epochs.
func (m *Machine) History() []Epoch { return m.Store.RetainedCheckpoints() }

// Now returns the machine's virtual time.
func (m *Machine) Now() time.Duration { return m.Clock.Now() }

// RunPeriodic drives the named group's periodic checkpointing for the given
// virtual duration while fn runs the application workload. fn is called
// repeatedly until the duration elapses; checkpoints trigger between calls,
// exactly as the orchestrator's timer would.
func (m *Machine) RunPeriodic(group string, dur time.Duration, fn func() error) error {
	g, ok := m.SLS.GroupByName(group)
	if !ok {
		return fmt.Errorf("aurora: no group %q", group)
	}
	start := m.Clock.Now()
	for m.Clock.Now()-start < dur {
		if err := fn(); err != nil {
			return err
		}
		if _, _, err := g.MaybePeriodic(); err != nil {
			return err
		}
		if m.wd != nil {
			if rep, ran := m.wd.MaybeRun(m.Clock.Now()); ran && !rep.OK() {
				return fmt.Errorf("aurora: watchdog: %s", rep)
			}
		}
	}
	return nil
}

// Package placement is the fleet coordinator: it tracks which machine
// hosts each checkpointing group (a primary) and which machine holds its
// warm standby, drives periodic replica syncs, discovers machine death
// by counting missed heartbeats, fails groups over to their standbys, and
// rebalances hot groups onto cold machines via live migration.
//
// The coordinator is deterministic by construction: machines and groups
// are iterated in registration order, standby and migration targets are
// chosen by (load, registration order), and all cadences run off one
// injected virtual clock. Two fleets built the same way and ticked the
// same way emit byte-identical event logs and status renderings.
//
// One asymmetry shapes standby placement: a full replica seed into a
// machine whose store already holds the group is refused (the manifest
// merge rejects duplicate names), so once a machine has held a group's
// image — as primary, standby, or migration target — it is never picked
// as that group's standby again. Each assignment tracks that "held" set;
// a small fleet can exhaust it, leaving the group temporarily
// unprotected, which the event log reports rather than hides.
package placement

import (
	"fmt"
	"strings"
	"time"

	"aurora"
	"aurora/internal/clock"
	"aurora/internal/net"
	"aurora/internal/telemetry"
	"aurora/internal/trace"
)

// Config tunes the coordinator's cadences and thresholds. Zero values
// select defaults; RebalanceEvery is opt-in (zero disables the scan).
type Config struct {
	SyncEvery      time.Duration // replica delta-ship cadence (default 10ms)
	HeartbeatEvery time.Duration // heartbeat probe cadence (default 5ms)
	RebalanceEvery time.Duration // hot-group scan cadence; 0 disables
	HotFactor      float64       // a node hotter than HotFactor x mean load sheds a group (default 2.0)
}

const (
	deadAfterMisses = 3 // consecutive unanswered heartbeats that declare a machine dead
	migrateRounds   = 2 // pre-copy rounds of a rebalancing migration
)

// Filled returns a copy of the config with every defaultable knob
// resolved — what the coordinator will actually run with. Callers that
// report effective settings (scenario validate) use this so their output
// can never drift from the real defaults.
func (c Config) Filled() Config {
	if c.SyncEvery <= 0 {
		c.SyncEvery = 10 * time.Millisecond
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 5 * time.Millisecond
	}
	if c.HotFactor <= 0 {
		c.HotFactor = 2.0
	}
	return c
}

// Node is one machine in the fleet as the coordinator sees it.
type Node struct {
	Name string
	M    *aurora.Machine

	down   bool          // ground truth: the driver cut power; probes go unanswered
	downAt time.Duration // when the driver cut power; anchors failover latency
	misses int           // consecutive unanswered heartbeats
	dead   bool          // coordinator's belief, set by missed heartbeats or a declare
}

// Assignment is one managed group: where it runs, where its standby
// lives, and its replication handle.
type Assignment struct {
	Name    string
	Primary string
	Standby string // "" while unprotected

	rep  *aurora.Replica
	work func() error    // application step run between migration pre-copy rounds
	held map[string]bool // nodes whose store holds this group's image
	ops  int64           // load window

	Syncs      int64
	Failovers  int64
	Migrations int64
	Orphaned   bool // primary died with no live standby: state is lost until a restore
}

// StandbyEpoch returns the checkpoint epoch the standby holds, 0 while
// the group is unprotected.
func (a *Assignment) StandbyEpoch() int64 {
	if a.rep == nil {
		return 0
	}
	return int64(a.rep.Base())
}

// EventKind classifies a coordinator decision.
type EventKind int

const (
	EvDead      EventKind = iota // a machine was declared dead
	EvFailover                   // a group was promoted on its standby
	EvOrphan                     // a group's primary died with no usable standby
	EvReseed                     // a new standby was seeded (Err set when no candidate or seed failed)
	EvRebalance                  // a group was live-migrated to shed load (Err set when the move failed)
	EvSyncError                  // a periodic sync failed (transfer stays pending and resumes)
)

func (k EventKind) String() string {
	switch k {
	case EvDead:
		return "dead"
	case EvFailover:
		return "failover"
	case EvOrphan:
		return "orphan"
	case EvReseed:
		return "reseed"
	case EvRebalance:
		return "rebalance"
	case EvSyncError:
		return "sync-error"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one coordinator decision, returned from Tick for the driver to
// act on (rebinding application handles after a failover or migration).
type Event struct {
	Kind  EventKind
	At    time.Duration
	Node  string // subject machine (death, orphan)
	Group string
	From  string
	To    string
	G     *aurora.Group // new live handle after failover/rebalance
	Err   error
}

func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%8.3fms] %-10s", float64(e.At.Microseconds())/1000, e.Kind)
	if e.Group != "" {
		fmt.Fprintf(&b, " group=%s", e.Group)
	}
	if e.Node != "" {
		fmt.Fprintf(&b, " node=%s", e.Node)
	}
	if e.From != "" || e.To != "" {
		fmt.Fprintf(&b, " %s->%s", e.From, e.To)
	}
	if e.Err != nil {
		fmt.Fprintf(&b, " err=%v", e.Err)
	}
	return b.String()
}

// Coordinator places groups across a fleet of machines and keeps them
// protected. It is not safe for concurrent use: drive it from the single
// simulation loop, like every other actor on the virtual timeline.
type Coordinator struct {
	clk clock.Clock
	cfg Config

	nodes  map[string]*Node
	order  []string // registration order: the deterministic iteration order
	groups map[string]*Assignment
	gorder []string

	lastHB, lastSync, lastReb time.Duration

	failovers, rebalances, syncErrors, orphans int64

	// Observability hooks, both optional. tr is the coordinator's observer:
	// placement decisions on the fleet lane, fleet-level counters,
	// gauges and latency histograms. slo is a watch whose breach log Status
	// renders (the driver that samples metrics evaluates it; the
	// coordinator only reports).
	tr  *trace.Tracer
	slo *telemetry.Watch
	src uint64 // coordinator's trace-context source id for flow stitching
}

// New builds a coordinator driven by clk. All cadences and the heartbeat
// read this clock, so a fleet of machines with independent clocks still
// gets one coherent coordination timeline.
func New(clk clock.Clock, cfg Config) *Coordinator {
	return &Coordinator{
		clk:    clk,
		cfg:    cfg.Filled(),
		nodes:  make(map[string]*Node),
		groups: make(map[string]*Assignment),
	}
}

// Instrument attaches an observer to the coordinator. Placement decisions
// — heartbeat scans, death declarations, failovers, reseeds, rebalance
// migrations — become spans and instants on the fleet lane when it keeps a
// timeline, and its store accumulates fleet counters, per-node load
// gauges, and failover/migration latency histograms. A nil observer leaves
// the coordinator uninstrumented.
func (c *Coordinator) Instrument(tr *trace.Tracer) {
	c.tr = tr
	c.src = trace.MachineID("coordinator")
	// Declare the full counter family so a clean run still exports every
	// fleet metric as a zero series — an SLO or assertion on fleet.orphans
	// must read 0, not "no data".
	for _, name := range []string{
		"fleet.deaths", "fleet.failovers", "fleet.reseeds",
		"fleet.rebalances", "fleet.migrations", "fleet.orphans",
		"fleet.sync_errors",
	} {
		tr.Count(name, 0)
	}
	tr.Gauge("fleet.alive", 0)
}

// WatchSLO gives Status a breach log to render. The coordinator never
// evaluates the watch itself — the driver sampling the metrics does —
// so attaching the same watch here cannot double-count breaches.
func (c *Coordinator) WatchSLO(w *telemetry.Watch) { c.slo = w }

// AddMachine registers a machine under a fleet-unique name.
func (c *Coordinator) AddMachine(name string, m *aurora.Machine) (*Node, error) {
	if _, ok := c.nodes[name]; ok {
		return nil, fmt.Errorf("placement: machine %q already registered", name)
	}
	n := &Node{Name: name, M: m}
	c.nodes[name] = n
	c.order = append(c.order, name)
	return n, nil
}

// Node returns a registered machine's fleet view.
func (c *Coordinator) Node(name string) (*Node, bool) {
	n, ok := c.nodes[name]
	return n, ok
}

// Manage places the named group, already attached and running on the
// primary machine, under coordination: a standby is chosen on the
// least-loaded other live machine and seeded immediately. work, if
// non-nil, is the application step run between migration pre-copy rounds.
func (c *Coordinator) Manage(group, primary string, work func() error) (*Assignment, error) {
	if _, ok := c.groups[group]; ok {
		return nil, fmt.Errorf("placement: group %q already managed", group)
	}
	pn, ok := c.nodes[primary]
	if !ok {
		return nil, fmt.Errorf("placement: no machine %q", primary)
	}
	if _, ok := pn.M.Group(group); !ok {
		return nil, fmt.Errorf("placement: machine %q hosts no group %q", primary, group)
	}
	a := &Assignment{
		Name:    group,
		Primary: primary,
		work:    work,
		held:    map[string]bool{primary: true},
	}
	c.groups[group] = a
	c.gorder = append(c.gorder, group)
	var evs []Event
	c.reseed(a, &evs)
	for _, e := range evs {
		if e.Err != nil {
			// Initial protection failing is a setup error, not a runtime
			// condition to log and live with.
			delete(c.groups, group)
			c.gorder = c.gorder[:len(c.gorder)-1]
			return nil, fmt.Errorf("placement: seeding standby for %q: %w", group, e.Err)
		}
	}
	return a, nil
}

// RecordOps reports application work landed on a group since the last
// rebalance scan. The coordinator never inspects group internals for
// load; the driver tells it.
func (c *Coordinator) RecordOps(group string, n int64) {
	if a, ok := c.groups[group]; ok {
		a.ops += n
	}
}

// KillMachine marks a machine's ground truth as down: heartbeats go
// unanswered from now on. The coordinator does NOT learn of the death
// here — it takes deadAfterMisses missed heartbeats.
func (c *Coordinator) KillMachine(name string) error {
	n, ok := c.nodes[name]
	if !ok {
		return fmt.Errorf("placement: no machine %q", name)
	}
	n.down = true
	n.downAt = c.clk.Now()
	return nil
}

// Tick runs every pass whose cadence has elapsed: heartbeat probes,
// replica syncs, and the rebalance scan. Call it from the fleet drive loop
// after advancing the clock.
func (c *Coordinator) Tick() []Event {
	var evs []Event
	now := c.clk.Now()
	if now-c.lastHB >= c.cfg.HeartbeatEvery {
		c.lastHB = now
		c.heartbeat(&evs)
	}
	if now-c.lastSync >= c.cfg.SyncEvery {
		c.lastSync = now
		c.syncPass(&evs)
	}
	if c.cfg.RebalanceEvery > 0 && now-c.lastReb >= c.cfg.RebalanceEvery {
		c.lastReb = now
		c.rebalance(&evs)
	}
	return evs
}

// Rebalance forces a hot-group scan outside the periodic cadence.
func (c *Coordinator) Rebalance() []Event {
	var evs []Event
	c.rebalance(&evs)
	return evs
}

// heartbeat probes every machine not yet believed dead and acts on death
// edges. A probe is one byte sent over a clean default wire, so its
// only effect is on the coordinator's clock: the byte's serialisation, then
// the wire latency. A powered-off machine leaves it unanswered.
func (c *Coordinator) heartbeat(evs *[]Event) {
	sp := c.tr.Begin(trace.TrackFleet, "fleet.heartbeat")
	probed, alive := 0, 0
	hb := net.DefaultParams()
	for _, name := range c.order {
		n := c.nodes[name]
		if n.dead {
			continue
		}
		probed++
		c.clk.Advance(hb.PerByte)
		c.clk.Advance(hb.Latency)
		if !n.down {
			n.misses = 0
		} else if n.misses++; n.misses >= deadAfterMisses {
			// Dead nodes are not probed, so crossing the threshold is
			// the edge: each death fails over once.
			c.markDead(n, evs)
			continue
		}
		alive++
	}
	sp.End(trace.I("probed", int64(probed)), trace.I("alive", int64(alive)))
	if c.tr != nil {
		c.tr.Gauge("fleet.alive", int64(alive))
		for _, name := range c.order {
			var load int64
			for _, g := range c.gorder {
				a := c.groups[g]
				if !a.Orphaned && a.Primary == name {
					load += a.ops
				}
			}
			c.tr.Gauge("fleet.load."+name, load)
		}
	}
}

// markDead records the coordinator's belief and fails over or reseeds
// every assignment touching the dead machine.
func (c *Coordinator) markDead(n *Node, evs *[]Event) {
	n.dead = true
	c.tr.Count("fleet.deaths", 1)
	c.tr.Instant(trace.TrackFleet, "fleet.dead", trace.S("node", n.Name))
	*evs = append(*evs, Event{Kind: EvDead, At: c.clk.Now(), Node: n.Name})
	for _, name := range c.gorder {
		a := c.groups[name]
		if a.Orphaned {
			continue
		}
		switch n.Name {
		case a.Primary:
			c.failover(a, n.Name, evs)
		case a.Standby:
			// Standby lost: the replica now ships into a grave. Retire the
			// handle and protect the group elsewhere.
			if a.rep != nil {
				a.rep.Abandon()
				a.rep = nil
			}
			a.Standby = ""
			c.reseed(a, evs)
		}
	}
}

// failover promotes a's standby after its primary died. The promotion is
// one span on the coordinator's fleet lane; a matching flow-stitched
// instant lands on the promoted machine's own tracer, so the merged fleet
// timeline draws kill -> failover -> promote as one arrow chain across
// machine tracks.
func (c *Coordinator) failover(a *Assignment, deadPrimary string, evs *[]Event) {
	standbyDead := a.Standby == "" || c.nodes[a.Standby].dead
	if a.rep == nil || standbyDead {
		a.Orphaned = true
		c.orphans++
		c.tr.Count("fleet.orphans", 1)
		c.tr.Instant(trace.TrackFleet, "fleet.orphan",
			trace.S("group", a.Name), trace.S("node", deadPrimary))
		*evs = append(*evs, Event{Kind: EvOrphan, At: c.clk.Now(), Group: a.Name, Node: deadPrimary})
		return
	}
	start := c.clk.Now()
	sp := c.tr.Begin(trace.TrackFleet, "fleet.failover",
		trace.S("group", a.Name), trace.S("from", deadPrimary), trace.S("to", a.Standby))
	g, _, err := a.rep.Failover(aurora.RestoreEager)
	if err != nil {
		sp.End(trace.S("err", err.Error()))
		a.Orphaned = true
		c.orphans++
		c.tr.Count("fleet.orphans", 1)
		*evs = append(*evs, Event{Kind: EvOrphan, At: c.clk.Now(), Group: a.Name, Node: deadPrimary, Err: err})
		return
	}
	newPrimary := a.Standby
	a.Primary, a.Standby = newPrimary, ""
	a.rep = nil
	a.Failovers++
	c.failovers++
	c.tr.Count("fleet.failovers", 1)

	// Latency from the moment the driver cut power (when known; a
	// declare has no ground-truth kill time, so fall back to the promotion
	// itself): detection window plus promote, the number an operator means
	// by "failover latency".
	now := c.clk.Now()
	lat := now - start
	if dn := c.nodes[deadPrimary]; dn != nil && dn.downAt > 0 && now > dn.downAt {
		lat = now - dn.downAt
	}
	c.tr.Observe("fleet.failover.ns", int64(lat))
	if sp.ID() != 0 {
		id := int64(trace.FlowID(c.src, sp.ID()))
		c.nodes[newPrimary].M.Tracer.Instant(trace.TrackFleet, "fleet.promote",
			trace.S("group", a.Name), trace.S("from", deadPrimary),
			trace.I(trace.FlowIn, id))
		sp.End(trace.I("latency_ns", int64(lat)), trace.I(trace.FlowOut, id))
	}
	*evs = append(*evs, Event{
		Kind: EvFailover, At: c.clk.Now(), Group: a.Name,
		From: deadPrimary, To: newPrimary, G: g,
	})
	c.reseed(a, evs)
}

// reseed picks a new standby for a and seeds it. Candidates must be
// alive, must not be the primary, and must never have held this group's
// image (a full seed into such a store is refused). Ties break by
// registration order. Failures are reported as EvReseed events with Err
// set; Manage turns those into a hard error, since a group that starts
// unprotected is a setup mistake rather than a runtime degradation.
func (c *Coordinator) reseed(a *Assignment, evs *[]Event) {
	var target *Node
	var targetLoad int
	for _, name := range c.order {
		n := c.nodes[name]
		if n.dead || name == a.Primary || a.held[name] {
			continue
		}
		load := c.hosted(name)
		if target == nil || load < targetLoad {
			target, targetLoad = n, load
		}
	}
	if target == nil {
		if evs != nil {
			*evs = append(*evs, Event{
				Kind: EvReseed, At: c.clk.Now(), Group: a.Name,
				Err: fmt.Errorf("placement: no standby candidate for %q", a.Name),
			})
		}
		return
	}
	pn := c.nodes[a.Primary]
	rep, err := pn.M.ReplicateTo(target.M, a.Name)
	if err != nil {
		if evs != nil {
			*evs = append(*evs, Event{
				Kind: EvReseed, At: c.clk.Now(), Group: a.Name, To: target.Name, Err: err,
			})
		}
		return
	}
	a.Standby = target.Name
	a.rep = rep
	a.held[target.Name] = true
	c.tr.Count("fleet.reseeds", 1)
	c.tr.Instant(trace.TrackFleet, "fleet.reseed",
		trace.S("group", a.Name), trace.S("to", target.Name))
	if evs != nil {
		*evs = append(*evs, Event{
			Kind: EvReseed, At: c.clk.Now(), Group: a.Name,
			From: a.Primary, To: target.Name,
		})
	}
}

// hosted counts assignments (primary or standby roles) on a node — the
// placement-pressure metric for standby selection.
func (c *Coordinator) hosted(node string) int {
	n := 0
	for _, name := range c.gorder {
		a := c.groups[name]
		if a.Orphaned {
			continue
		}
		if a.Primary == node || a.Standby == node {
			n++
		}
	}
	return n
}

// syncPass ships the delta for every protected group whose endpoints are
// both believed alive. A failed ship stays pending on the handle; the
// next pass resumes it from the standby's high-water mark.
func (c *Coordinator) syncPass(evs *[]Event) {
	for _, name := range c.gorder {
		a := c.groups[name]
		if a.Orphaned || a.rep == nil {
			continue
		}
		if c.nodes[a.Primary].dead || c.nodes[a.Standby].dead {
			continue
		}
		if err := a.rep.Sync(); err != nil {
			c.syncErrors++
			c.tr.Count("fleet.sync_errors", 1)
			*evs = append(*evs, Event{
				Kind: EvSyncError, At: c.clk.Now(), Group: a.Name,
				From: a.Primary, To: a.Standby, Err: err,
			})
			continue
		}
		a.Syncs++
	}
}

// rebalance sheds the hottest group off any node carrying more than
// HotFactor times the mean load, onto the coldest eligible node. One
// move per scan: small corrective steps keep the fleet stable. The load
// window resets after every scan.
func (c *Coordinator) rebalance(evs *[]Event) {
	defer func() {
		for _, name := range c.gorder {
			c.groups[name].ops = 0
		}
	}()

	load := make(map[string]int64)
	var total int64
	live := 0
	for _, name := range c.order {
		if !c.nodes[name].dead {
			live++
		}
	}
	for _, name := range c.gorder {
		a := c.groups[name]
		if a.Orphaned {
			continue
		}
		load[a.Primary] += a.ops
		total += a.ops
	}
	if total == 0 || live < 2 {
		return
	}
	mean := float64(total) / float64(live)

	// Hottest overloaded node with at least two primaries (moving a
	// node's only group just relocates the hot spot).
	var hot *Node
	for _, name := range c.order {
		n := c.nodes[name]
		if n.dead || float64(load[name]) <= c.cfg.HotFactor*mean {
			continue
		}
		if c.primaries(name) < 2 {
			continue
		}
		if hot == nil || load[name] > load[hot.Name] {
			hot = n
		}
	}
	if hot == nil {
		return
	}

	// Its hottest group, then the coldest node eligible to receive it.
	var victim *Assignment
	for _, name := range c.gorder {
		a := c.groups[name]
		if a.Orphaned || a.Primary != hot.Name {
			continue
		}
		if victim == nil || a.ops > victim.ops {
			victim = a
		}
	}
	var target *Node
	for _, name := range c.order {
		n := c.nodes[name]
		if n.dead || name == hot.Name || victim.held[name] {
			continue
		}
		if target == nil || load[name] < load[target.Name] {
			target = n
		}
	}
	if target == nil || load[target.Name] >= load[hot.Name] {
		return
	}
	c.migrate(victim, target, evs)
}

// primaries counts primary roles on a node.
func (c *Coordinator) primaries(node string) int {
	n := 0
	for _, name := range c.gorder {
		a := c.groups[name]
		if !a.Orphaned && a.Primary == node {
			n++
		}
	}
	return n
}

// MigrateGroup live-migrates a managed group to the named machine and
// re-protects it. The target must be alive and must never have held the
// group's image. On migration failure the group keeps running where it
// is — a failed move must never take the service down.
func (c *Coordinator) MigrateGroup(group, to string) ([]Event, error) {
	a, ok := c.groups[group]
	if !ok {
		return nil, fmt.Errorf("placement: group %q not managed", group)
	}
	if a.Orphaned {
		return nil, fmt.Errorf("placement: group %q is orphaned", group)
	}
	tn, ok := c.nodes[to]
	if !ok {
		return nil, fmt.Errorf("placement: no machine %q", to)
	}
	if tn.dead {
		return nil, fmt.Errorf("placement: machine %q is dead", to)
	}
	if to == a.Primary {
		return nil, fmt.Errorf("placement: group %q already on %q", group, to)
	}
	if a.held[to] {
		return nil, fmt.Errorf("placement: machine %q already holds an image of %q", to, group)
	}
	var evs []Event
	c.migrate(a, tn, &evs)
	for _, e := range evs {
		if e.Kind == EvRebalance && e.Err != nil {
			return evs, e.Err
		}
	}
	return evs, nil
}

// migrate moves a's primary to target via live migration, retires the old
// replica handle, and reseeds a standby from the new primary.
func (c *Coordinator) migrate(a *Assignment, target *Node, evs *[]Event) {
	src := c.nodes[a.Primary]
	start := c.clk.Now()
	sp := c.tr.Begin(trace.TrackFleet, "fleet.migrate",
		trace.S("group", a.Name), trace.S("from", src.Name), trace.S("to", target.Name))
	g, _, err := src.M.MigrateTo(target.M, a.Name, migrateRounds, a.work)
	if err != nil {
		// The group survived in place (migration failure leaves the
		// source intact); report and move on.
		sp.End(trace.S("err", err.Error()))
		*evs = append(*evs, Event{
			Kind: EvRebalance, At: c.clk.Now(), Group: a.Name,
			From: src.Name, To: target.Name, Err: err,
		})
		return
	}
	if a.rep != nil {
		// The handle's source group was just exited and forgotten on the
		// old primary; shipping through it now would replicate a corpse.
		a.rep.Abandon()
		a.rep = nil
	}
	from := a.Primary
	a.Primary = target.Name
	a.Standby = ""
	a.held[target.Name] = true
	a.Migrations++
	c.rebalances++
	c.tr.Count("fleet.migrations", 1)
	c.tr.Observe("fleet.migrate.ns", int64(c.clk.Now()-start))
	if sp.ID() != 0 {
		id := int64(trace.FlowID(c.src, sp.ID()))
		target.M.Tracer.Instant(trace.TrackFleet, "fleet.receive",
			trace.S("group", a.Name), trace.S("from", from),
			trace.I(trace.FlowIn, id))
		sp.End(trace.I(trace.FlowOut, id))
	}
	*evs = append(*evs, Event{
		Kind: EvRebalance, At: c.clk.Now(), Group: a.Name,
		From: from, To: target.Name, G: g,
	})
	c.reseed(a, evs)
}

// Assignment returns the managed group's current placement.
func (c *Coordinator) Assignment(group string) (*Assignment, bool) {
	a, ok := c.groups[group]
	return a, ok
}

// Counters.
func (c *Coordinator) Failovers() int64  { return c.failovers }
func (c *Coordinator) Rebalances() int64 { return c.rebalances }
func (c *Coordinator) Orphans() int64    { return c.orphans }

// Protected reports whether every non-orphaned group currently has a live
// standby — the fleet-health invariant scenarios assert after a kill.
func (c *Coordinator) Protected() bool {
	for _, name := range c.gorder {
		a := c.groups[name]
		if a.Orphaned {
			continue
		}
		if a.Standby == "" || c.nodes[a.Standby].dead {
			return false
		}
	}
	return true
}

// Status renders the fleet as the coordinator sees it, deterministically
// (registration order throughout).
func (c *Coordinator) Status() string {
	var b strings.Builder
	alive := 0
	for _, name := range c.order {
		if !c.nodes[name].dead {
			alive++
		}
	}
	orphaned := 0
	for _, name := range c.gorder {
		if c.groups[name].Orphaned {
			orphaned++
		}
	}
	fmt.Fprintf(&b, "fleet: %d machines (%d alive), %d groups (%d orphaned)\n",
		len(c.order), alive, len(c.gorder), orphaned)
	fmt.Fprintf(&b, "  failovers=%d rebalances=%d sync_errors=%d\n",
		c.failovers, c.rebalances, c.syncErrors)
	for _, name := range c.order {
		n := c.nodes[name]
		state := "alive"
		if n.dead {
			state = "dead"
		}
		fmt.Fprintf(&b, "  node  %-8s %-5s primaries=%d hosted=%d misses=%d\n",
			name, state, c.primaries(name), c.hosted(name), n.misses)
	}
	for _, name := range c.gorder {
		a := c.groups[name]
		standby := a.Standby
		if standby == "" {
			standby = "-"
		}
		state := ""
		if a.Orphaned {
			state = " ORPHANED"
		}
		fmt.Fprintf(&b, "  group %-8s primary=%-8s standby=%-8s syncs=%d failovers=%d migrations=%d%s\n",
			name, a.Primary, standby, a.Syncs, a.Failovers, a.Migrations, state)
	}
	if c.slo != nil {
		brs := c.slo.Breaches()
		fmt.Fprintf(&b, "  slo: %d breaches\n", len(brs))
		for _, br := range brs {
			fmt.Fprintf(&b, "    %s\n", br.String())
		}
	}
	return b.String()
}

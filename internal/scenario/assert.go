package scenario

// The bodies of the assertion kinds (the table is in kinds.go): each judges
// the finished run and returns the verdict with the detail line the result
// and the fingerprint carry.

import (
	"fmt"
	"slices"
	"time"

	"aurora/internal/telemetry"
	"aurora/internal/trace"
)

// atLeast builds a counting kind: what the run produced against the declared
// min (default 1). format takes the count, then the threshold.
func atLeast(format string, count func(*Harness, AssertionDecl) int64) func(*Harness, AssertionDecl) (bool, string) {
	return func(r *Harness, a AssertionDecl) (bool, string) {
		n, min := count(r, a), max(a.Min, 1)
		return n >= min, fmt.Sprintf(format, n, min)
	}
}

func (r *Harness) auditClean(a AssertionDecl) (bool, string) {
	rep := r.machines[a.Machine].m.Audit()
	if !rep.OK() {
		return false, fmt.Sprintf("%d violations, first: %s", len(rep.Violations), rep.Violations[0])
	}
	return true, "0 violations"
}

func (r *Harness) fsckClean(a AssertionDecl) (bool, string) {
	rep := r.machines[a.Machine].m.Store.Fsck()
	if len(rep.Problems) > 0 {
		return false, fmt.Sprintf("%d problems, first: %s", len(rep.Problems), rep.Problems[0])
	}
	return true, fmt.Sprintf("%d objects, %d pages scrubbed", rep.Objects, rep.ScrubbedPages)
}

func (r *Harness) flightContains(a AssertionDecl) (bool, string) {
	timeline := ""
	for _, mf := range r.res.Flights {
		if mf.Machine == a.Machine {
			timeline = mf.Timeline
		}
	}
	n, min := countFlightKind(timeline, a.Event), max(a.Min, 1)
	return n >= min, fmt.Sprintf("%d %q events (want >= %d)", n, a.Event, min)
}

func (r *Harness) groupOn(a AssertionDecl) (bool, string) {
	gs := r.groups[a.Group]
	return gs.alive && gs.host.decl.Name == a.Machine,
		fmt.Sprintf("group on %q alive=%v (want on %q)", gs.host.decl.Name, gs.alive, a.Machine)
}

func (r *Harness) p99StopUnder(a AssertionDecl) (bool, string) {
	gs := r.groups[a.Group]
	if len(gs.stopTimes) == 0 {
		return false, "no checkpoints measured"
	}
	p99 := p99us(gs.stopTimes)
	return p99 <= a.MaxUS, fmt.Sprintf("p99 stop %dus over %d checkpoints (want <= %dus)", p99, len(gs.stopTimes), a.MaxUS)
}

// durableWindowUnder is the proof WAL-first commit keeps the loss window tiny.
func (r *Harness) durableWindowUnder(a AssertionDecl) (bool, string) {
	gs := r.groups[a.Group]
	if len(gs.durableWindows) == 0 {
		return false, "no checkpoints measured"
	}
	p99 := p99us(gs.durableWindows)
	return p99 <= a.MaxUS, fmt.Sprintf("p99 durable window %dus over %d commits (%d via WAL, want <= %dus)",
		p99, len(gs.durableWindows), gs.walCommits, a.MaxUS)
}

// fleetHealth is the invariant a machine kill must not break.
func (r *Harness) fleetHealth(AssertionDecl) (bool, string) {
	c := r.coord
	return c.Protected() && c.Orphans() == 0, fmt.Sprintf("protected=%v orphans=%d failovers=%d rebalances=%d",
		c.Protected(), c.Orphans(), c.Failovers(), c.Rebalances())
}

func (r *Harness) restoresUnder(a AssertionDecl) (bool, string) {
	gs := r.groups[a.Group]
	if len(gs.restoreTimes) == 0 {
		return false, "no restores measured"
	}
	worst := int64(slices.Max(gs.restoreTimes) / time.Microsecond)
	return worst <= a.MaxUS, fmt.Sprintf("worst restore %dus over %d restores (want <= %dus)", worst, len(gs.restoreTimes), a.MaxUS)
}

// rollbacksAtMost: max defaults to 0. No restore rolls back any more — one
// that meets a rotted page fails — so the bound always holds.
func (r *Harness) rollbacksAtMost(a AssertionDecl) (bool, string) {
	gs := r.groups[a.Group]
	return gs.rollbacks <= a.Max, fmt.Sprintf("%d restore rollback(s) (want <= %d)", gs.rollbacks, a.Max)
}

func (r *Harness) metricP99Under(a AssertionDecl) (bool, string) {
	h := r.metricHistogram(a)
	if h == nil || h.Samples() == 0 {
		return false, fmt.Sprintf("no samples for metric %q", a.Metric)
	}
	p99 := h.Quantile(0.99)
	return p99 < a.Max, fmt.Sprintf("%s p99 %dns over %d samples (want < %dns)%s",
		a.Metric, p99, h.Samples(), a.Max, metricScope(a))
}

func (r *Harness) metricMaxUnder(a AssertionDecl) (bool, string) {
	max, found := int64(0), false
	for _, reg := range r.metricRegistries(a) {
		for _, p := range reg.SeriesPoints(a.Metric) {
			found = true
			if p.V > max {
				max = p.V
			}
		}
	}
	if !found {
		return false, fmt.Sprintf("no series for metric %q", a.Metric)
	}
	return max < a.Max, fmt.Sprintf("%s max %d (want < %d)%s", a.Metric, max, a.Max, metricScope(a))
}

func (r *Harness) metricFinalAtLeast(a AssertionDecl) (bool, string) {
	total, found := int64(0), false
	for _, reg := range r.metricRegistries(a) {
		if pts := reg.SeriesPoints(a.Metric); len(pts) > 0 {
			found = true
			total += pts[len(pts)-1].V
		}
	}
	if !found {
		return false, fmt.Sprintf("no series for metric %q", a.Metric)
	}
	min := max(a.Min, 1)
	return total >= min, fmt.Sprintf("%s final %d (want >= %d)%s", a.Metric, total, min, metricScope(a))
}

// metricRegistries resolves the registries a metric assertion reads: one
// machine's when `machine` is set, otherwise every fleet member plus the
// coordinator's, in registration order.
func (r *Harness) metricRegistries(a AssertionDecl) []*telemetry.Registry {
	var regs []*telemetry.Registry
	for _, mem := range r.tele.members {
		if a.Machine == "" || mem.ms != nil && mem.name == a.Machine {
			regs = append(regs, mem.reg)
		}
	}
	return regs
}

// metricHistogram merges the named histogram across the assertion's scope.
func (r *Harness) metricHistogram(a AssertionDecl) *trace.Histogram {
	var out *trace.Histogram
	for _, reg := range r.metricRegistries(a) {
		h := reg.Store().HistogramCopy(a.Metric)
		if h == nil {
			continue
		}
		if out == nil {
			out = trace.NewHistogram(a.Metric)
		}
		out.Merge(h)
	}
	return out
}

// metricScope labels the assertion detail with where the metric was read.
func metricScope(a AssertionDecl) string {
	if a.Machine != "" {
		return " on " + a.Machine
	}
	return " fleet-wide"
}

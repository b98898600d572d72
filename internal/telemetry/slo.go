package telemetry

import (
	"fmt"
	"time"
)

// SLOKind selects how an objective reads its metric.
type SLOKind uint8

// Objective kinds.
const (
	SLOP99Under     SLOKind = iota // histogram p99 must stay under Bound
	SLOMaxUnder                    // series max must stay under Bound
	SLOFinalAtLeast                // series last value must reach Bound
)

// String names the kind as rendered in status output.
func (k SLOKind) String() string {
	switch k {
	case SLOP99Under:
		return "p99-under"
	case SLOMaxUnder:
		return "max-under"
	case SLOFinalAtLeast:
		return "final-at-least"
	}
	return "slo?"
}

// Holds reports whether value meets an objective of kind k with bound:
// final-at-least needs value >= bound, the other kinds value < bound. It
// is the one statement of that comparison; the watch, the auditor and the
// scenario runner judge through it, and Breach.String renders it.
func (k SLOKind) Holds(value, bound int64) bool {
	if k == SLOFinalAtLeast {
		return value >= bound
	}
	return value < bound
}

// SLO is one declarative objective over a registry metric. Bound units
// match the metric's units (nanoseconds for latency histograms).
type SLO struct {
	Name   string  // rule name, e.g. "stop-p99"
	Metric string  // histogram or series name in the registry
	Kind   SLOKind //
	Bound  int64   //
}

// Breach records one objective violation at evaluation time.
type Breach struct {
	SLO    string        `json:"slo"`
	Metric string        `json:"metric"`
	Kind   string        `json:"kind"`
	At     time.Duration `json:"at_ns"`
	Value  int64         `json:"value"`
	Bound  int64         `json:"bound"`
}

// SLOKind recovers the breached objective's kind from its rendered name;
// an unknown name reads as an "under" kind.
func (b Breach) SLOKind() SLOKind {
	for k := SLOP99Under; k <= SLOFinalAtLeast; k++ {
		if k.String() == b.Kind {
			return k
		}
	}
	return ^SLOKind(0)
}

// String renders the breach for status lines and flight notes, with the
// comparison its value must satisfy: a value equal to its bound meets only
// an at-least objective.
func (b Breach) String() string {
	op := "<"
	if b.SLOKind().Holds(b.Bound, b.Bound) {
		op = ">="
	}
	return fmt.Sprintf("slo %s: %s %s %s %d violated (value %d) at %s",
		b.SLO, b.Metric, b.Kind, op, b.Bound, b.Value, b.At)
}

// Watch evaluates a rule set against one registry on the sampler
// cadence. It fires each rule at most once per breach episode: a rule
// re-arms only after an evaluation that satisfies it, so a sustained
// violation emits one breach, not one per tick.
type Watch struct {
	rules    []SLO
	tripped  []bool
	breaches []Breach
}

// NewWatch returns a watchdog over rules, evaluated in declaration order.
func NewWatch(rules []SLO) *Watch {
	return &Watch{rules: rules, tripped: make([]bool, len(rules))}
}

// Eval checks every rule against r at virtual time now, returning newly
// fired breaches (empty most ticks). Each one is logged here and counted
// once in r's store as slo.breaches — the pair the sls.slo audit family
// cross-checks. Nil-safe on both receiver and r.
func (w *Watch) Eval(r *Registry, now time.Duration) []Breach {
	if w == nil || r == nil {
		return nil
	}
	var fired []Breach
	for i, rule := range w.rules {
		// "At least" objectives only make sense at end of run; during the
		// run the value is still climbing, so Eval never trips them —
		// Final is the authoritative check.
		value, violated := rule.check(r)
		if !violated || rule.Kind == SLOFinalAtLeast {
			w.tripped[i] = false
			continue
		}
		if w.tripped[i] {
			continue
		}
		w.tripped[i] = true
		b := rule.breach(now, value)
		w.breaches = append(w.breaches, b)
		fired = append(fired, b)
		r.store.Count("slo.breaches", 1)
	}
	return fired
}

// check reads the rule's metric from r and judges it against the bound.
func (rule SLO) check(r *Registry) (value int64, violated bool) {
	value, _ = Judge(rule.Kind, rule.Metric, r)
	return value, !rule.Kind.Holds(value, rule.Bound)
}

// Judge reads metric the way an objective of kind reads it, across regs:
// the p99 of the histogram merged over them (p99-under), the largest point
// of any of their series (max-under), or the sum of their series' last
// points (final-at-least). n counts what value folds — histogram samples,
// series points, series — and is 0, with value 0, when no registry has the
// metric. Nil registries are skipped. It is the one place an objective's
// metric is read: a Watch judges its registry, the scenario's metric
// assertions their scope.
func Judge(kind SLOKind, metric string, regs ...*Registry) (value, n int64) {
	if kind == SLOP99Under {
		h := merge(metric, regs)
		if h == nil {
			return 0, 0
		}
		return h.Quantile(0.99), h.Samples()
	}
	for _, r := range regs {
		if r == nil || r.series[metric] == nil {
			continue
		}
		pts := r.series[metric].pts
		if kind == SLOFinalAtLeast {
			value += pts[len(pts)-1].V
			n++
			continue
		}
		for _, p := range pts {
			if n == 0 || p.V > value {
				value = p.V
			}
			n++
		}
	}
	return value, n
}

func (rule SLO) breach(now time.Duration, value int64) Breach {
	return Breach{
		SLO: rule.Name, Metric: rule.Metric, Kind: rule.Kind.String(),
		At: now, Value: value, Bound: rule.Bound,
	}
}

// Final re-checks every rule at end of run, including final-at-least
// objectives, and returns all outstanding violations (one per rule).
func (w *Watch) Final(r *Registry, now time.Duration) []Breach {
	if w == nil || r == nil {
		return nil
	}
	var out []Breach
	for _, rule := range w.rules {
		if value, violated := rule.check(r); violated {
			out = append(out, rule.breach(now, value))
		}
	}
	return out
}

// Breaches returns every breach fired so far, in fire order.
func (w *Watch) Breaches() []Breach {
	if w == nil {
		return nil
	}
	return append([]Breach(nil), w.breaches...)
}

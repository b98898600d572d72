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
	At     time.Duration `json:"at_us"`
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
	switch rule.Kind {
	case SLOP99Under:
		value = r.store.Quantile(rule.Metric, 0.99)
	case SLOMaxUnder:
		value = r.reduce(rule.Metric, (*Series).max)
	case SLOFinalAtLeast:
		value = r.reduce(rule.Metric, (*Series).last)
	default:
		return 0, false
	}
	return value, !rule.Kind.Holds(value, rule.Bound)
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

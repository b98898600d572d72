package telemetry

import (
	"aurora/internal/trace"
)

// Fleet aggregates per-machine registries into fleet-wide views. Members
// iterate in the order they were added — the same determinism contract as
// the placement coordinator.
type Fleet struct {
	names []string
	regs  []*Registry
}

// NewFleet returns an empty aggregation.
func NewFleet() *Fleet { return &Fleet{} }

// Add registers one machine's registry under its name. Nil registries
// are accepted and skipped during aggregation, so a fleet mixing
// telemetry-enabled and disabled machines still merges cleanly.
func (f *Fleet) Add(name string, r *Registry) {
	if f == nil {
		return
	}
	f.names = append(f.names, name)
	f.regs = append(f.regs, r)
}

// merge folds the named histogram from every registry in regs into one
// standalone histogram. Registries that are nil or never observed the
// metric contribute nothing; the result is nil only when none has it.
func merge(name string, regs []*Registry) *trace.Histogram {
	var out *trace.Histogram
	for _, r := range regs {
		h := r.Store().HistogramCopy(name)
		switch {
		case h == nil:
		case out == nil:
			out = h
		default:
			out.Merge(h)
		}
	}
	return out
}

// each visits every (name, registry) pair with a non-nil registry.
func (f *Fleet) each(fn func(name string, r *Registry)) {
	if f == nil {
		return
	}
	for i, r := range f.regs {
		if r != nil {
			fn(f.names[i], r)
		}
	}
}

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

// MergedHistogram folds the named histogram from every member into one
// fleet histogram. Members that never observed the metric contribute
// nothing; the result is nil only when no member has it.
func (f *Fleet) MergedHistogram(name string) *trace.Histogram {
	var out *trace.Histogram
	f.each(func(_ string, r *Registry) {
		if h := r.store.HistogramCopy(name); h != nil {
			if out == nil {
				out = trace.NewHistogram(name)
			}
			out.Merge(h)
		}
	})
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

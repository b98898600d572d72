// Package telemetry is the fleet-wide reading side of the Aurora
// reproduction's instrumentation. The numbers themselves — counters,
// gauges, histograms — accumulate in each machine's internal/trace
// observer and nowhere else; this package adds what that store lacks: a
// Registry samples it on a cadence into bounded time-series rings with
// pair-merge downsampling, a Watch judges declarative SLOs against it, a
// Fleet merges machines into fleet percentiles, and the exporters render
// Prometheus text and a deterministic JSON snapshot.
//
// Determinism is the contract: every accessor iterates metrics sorted by
// name (never map or first-touch order), so two runs of a seeded scenario
// produce byte-identical snapshots. Like the tracer, every method is safe
// on a nil receiver — the disabled path costs one pointer check.
package telemetry

import (
	"time"

	"aurora/internal/trace"
)

// Registry is the sampler over one machine's metric store. Construct with
// New; a nil *Registry is the disabled plane — every method no-ops.
type Registry struct {
	store *trace.Tracer

	series map[string]*Series
}

// New returns a registry sampling store, stamping series points from the
// store's clock. A nil store yields the nil (disabled) registry.
func New(store *trace.Tracer) *Registry {
	if store == nil {
		return nil
	}
	return &Registry{store: store, series: make(map[string]*Series)}
}

// Store returns the observer this registry reads; nil from a nil registry,
// and the nil observer absorbs every call.
func (r *Registry) Store() *trace.Tracer {
	if r == nil {
		return nil
	}
	return r.store
}

func (r *Registry) record(now time.Duration, name string, agg Agg, v int64) {
	s := r.series[name]
	if s == nil {
		s = newSeries(name, agg, defaultSeriesCap)
		r.series[name] = s
	}
	s.append(now, v)
}

// SeriesPoints returns a copy of the named series' stored points.
func (r *Registry) SeriesPoints(name string) []Point {
	if r == nil {
		return nil
	}
	s := r.series[name]
	if s == nil {
		return nil
	}
	return append([]Point(nil), s.pts...)
}

// reduce folds the named series' stored points with fn (0 if absent).
func (r *Registry) reduce(name string, fn func(*Series) int64) int64 {
	if s := r.series[name]; s != nil {
		return fn(s)
	}
	return 0
}

// Sample snapshots every counter, gauge, and histogram p99 of the store
// into its backing series — the sampler-cadence tick. Counters and gauges
// sample with AggLast (the total/level at the sample instant); histogram
// p99s sample with AggMax so downsampling never hides a latency spike.
func (r *Registry) Sample() {
	if r == nil {
		return
	}
	now, m := r.store.Now(), r.store.Metrics()
	for _, c := range m.Counters {
		r.record(now, c.Name, AggLast, c.Value)
	}
	for _, g := range m.Gauges {
		r.record(now, g.Name, AggLast, g.Value)
	}
	for _, h := range m.Histograms {
		r.record(now, h.Name+".p99", AggMax, h.P99)
	}
}

package telemetry

import (
	"encoding/json"
	"io"

	"aurora/internal/trace"
)

// CounterTotal sums the named counter across members.
func (f *Fleet) CounterTotal(name string) int64 {
	var total int64
	f.each(func(_ string, r *Registry) { total += r.store.CounterValue(name) })
	return total
}

// MergedHistogram folds the named histogram from every member into one
// fleet histogram; nil when no member has it.
func (f *Fleet) MergedHistogram(name string) *trace.Histogram {
	if f == nil {
		return nil
	}
	return merge(name, f.regs)
}

// SeriesPoints returns a copy of the named series' stored points.
func (r *Registry) SeriesPoints(name string) []Point {
	if r == nil || r.series[name] == nil {
		return nil
	}
	return append([]Point(nil), r.series[name].pts...)
}

// Quantile returns the fleet-merged q-quantile of the named histogram
// (0 if no member observed it).
func (f *Fleet) Quantile(name string, q float64) int64 {
	return f.MergedHistogram(name).Quantile(q)
}

// WritePrometheus renders every member under shared family headers.
func (f *Fleet) WritePrometheus(w io.Writer) error {
	var snaps []Snapshot
	f.each(func(name string, r *Registry) { snaps = append(snaps, r.Snapshot(name)) })
	return WritePrometheus(w, snaps...)
}

// Record appends a raw sample to the named time series, creating it with
// the given aggregator and default retention on first use.
func (r *Registry) Record(name string, agg Agg, v int64) {
	if r == nil {
		return
	}
	r.record(r.store.Now(), name, agg, v)
}

// writeJSON encodes v with two-space indent and a trailing newline, the
// layout of the metrics.json artifact.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// gaugeValue returns the named gauge's reading in the registry's store (0
// if absent).
func gaugeValue(r *Registry, name string) int64 {
	for _, v := range r.Store().Metrics().Gauges {
		if v.Name == name {
			return v.Value
		}
	}
	return 0
}

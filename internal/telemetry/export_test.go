package telemetry

import "io"

// CounterTotal sums the named counter across members.
func (f *Fleet) CounterTotal(name string) int64 {
	var total int64
	f.each(func(_ string, r *Registry) { total += r.store.CounterValue(name) })
	return total
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

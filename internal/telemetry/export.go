package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"

	"aurora/internal/trace"
)

// Snapshot is the deterministic JSON view of one machine: every metric of
// its store and every series with its stored points, each list sorted by
// name. Two runs of the same seeded scenario must produce byte-identical
// encodings — CI diffs them raw. It is also what the Prometheus text is
// rendered from, so both exports come from one walk of the store.
type Snapshot struct {
	Machine    string               `json:"machine,omitempty"`
	Counters   []trace.NamedValue   `json:"counters,omitempty"`
	Gauges     []trace.NamedValue   `json:"gauges,omitempty"`
	Histograms []trace.HistSnapshot `json:"histograms,omitempty"`
	Series     []SeriesView         `json:"series,omitempty"`
}

// SeriesView is one series with its surviving points.
type SeriesView struct {
	Name   string  `json:"name"`
	Agg    string  `json:"agg"`
	Stride int64   `json:"stride"`
	Points []Point `json:"points"`
}

// Snapshot captures the store's and the series' current state.
func (r *Registry) Snapshot(machine string) Snapshot {
	snap := Snapshot{Machine: machine}
	if r == nil {
		return snap
	}
	m := r.store.Metrics()
	snap.Counters, snap.Gauges, snap.Histograms = m.Counters, m.Gauges, m.Histograms
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range slices.Sorted(maps.Keys(r.series)) {
		s := r.series[name]
		snap.Series = append(snap.Series, SeriesView{
			Name: name, Agg: s.agg.String(), Stride: s.stride,
			Points: append([]Point{}, s.pts...),
		})
	}
	return snap
}

// FleetSnapshot is the fleet-wide JSON view: per-machine snapshots in
// member order plus fleet-merged histogram summaries.
type FleetSnapshot struct {
	Machines []Snapshot           `json:"machines"`
	Merged   []trace.HistSnapshot `json:"merged,omitempty"`
	Breaches []Breach             `json:"slo_breaches,omitempty"`
}

// FleetSnapshot captures every member plus merged views of the
// histogram names present on any member, sorted by name.
func (f *Fleet) FleetSnapshot() FleetSnapshot {
	var out FleetSnapshot
	seen := make(map[string]bool)
	f.each(func(name string, r *Registry) {
		snap := r.Snapshot(name)
		out.Machines = append(out.Machines, snap)
		for _, h := range snap.Histograms {
			seen[h.Name] = true
		}
	})
	for _, hn := range slices.Sorted(maps.Keys(seen)) {
		out.Merged = append(out.Merged, f.MergedHistogram(hn).Snapshot())
	}
	return out
}

// WriteJSON encodes the snapshot with stable formatting (two-space
// indent, trailing newline) so artifacts diff cleanly.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// promName mangles a metric name into the Prometheus exposition charset:
// dots and dashes become underscores, everything is prefixed aurora_.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("aurora_")
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders snapshots in the Prometheus text exposition
// format: counters and gauges as scalars, histograms as summaries with
// quantile labels. A metric family gets exactly one # TYPE header, followed
// by one sample (set) per snapshot that has it, labelled by machine — the
// format forbids repeating the header per machine. Deterministic: families
// sorted by name, machines in argument order, fixed formatting.
func WritePrometheus(w io.Writer, snaps ...Snapshot) error {
	fams := make(map[string]*strings.Builder)
	family := func(name, typ string) (string, *strings.Builder) {
		pn := promName(name)
		b := fams[pn]
		if b == nil {
			b = new(strings.Builder)
			fmt.Fprintf(b, "# TYPE %s %s\n", pn, typ)
			fams[pn] = b
		}
		return pn, b
	}
	for _, s := range snaps {
		for _, c := range s.Counters {
			pn, b := family(c.Name, "counter")
			fmt.Fprintf(b, "%s%s %d\n", pn, promLabels(s.Machine, ""), c.Value)
		}
		for _, g := range s.Gauges {
			pn, b := family(g.Name, "gauge")
			fmt.Fprintf(b, "%s%s %d\n", pn, promLabels(s.Machine, ""), g.Value)
		}
		for _, h := range s.Histograms {
			pn, b := family(h.Name, "summary")
			fmt.Fprintf(b, "%s%s %d\n", pn, promLabels(s.Machine, "0.5"), h.P50)
			fmt.Fprintf(b, "%s%s %d\n", pn, promLabels(s.Machine, "0.95"), h.P95)
			fmt.Fprintf(b, "%s%s %d\n", pn, promLabels(s.Machine, "0.99"), h.P99)
			label := promLabels(s.Machine, "")
			fmt.Fprintf(b, "%s_sum%s %d\n%s_count%s %d\n", pn, label, h.Sum, pn, label, h.Count)
		}
	}
	for _, pn := range slices.Sorted(maps.Keys(fams)) {
		if _, err := io.WriteString(w, fams[pn].String()); err != nil {
			return err
		}
	}
	return nil
}

// promLabels renders the label set of one sample; either label may be
// absent.
func promLabels(machine, quantile string) string {
	var parts []string
	if machine != "" {
		parts = append(parts, fmt.Sprintf("machine=%q", machine))
	}
	if quantile != "" {
		parts = append(parts, fmt.Sprintf("quantile=%q", quantile))
	}
	if parts == nil {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus renders the registry's snapshot, labelled by machine
// when one is given.
func (r *Registry) WritePrometheus(w io.Writer, machine string) error {
	return WritePrometheus(w, r.Snapshot(machine))
}

// WritePrometheus renders every member under shared family headers.
func (f *Fleet) WritePrometheus(w io.Writer) error {
	var snaps []Snapshot
	f.each(func(name string, r *Registry) { snaps = append(snaps, r.Snapshot(name)) })
	return WritePrometheus(w, snaps...)
}

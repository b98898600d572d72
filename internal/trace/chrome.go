package trace

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"
)

// Cross-machine stitching convention: a producer that hands causality to
// another machine tags its span/instant with I(FlowOut, id); the consumer
// tags the receiving event with I(FlowIn, id) carrying the same id.
// WriteChrome turns each matched pair into a Chrome flow arrow from the
// source slice to the destination slice — that is how a replication ship
// or a kill→failover→promote chain renders as one connected path across
// machine tracks.
const (
	FlowOut = "flow_out"
	FlowIn  = "flow_in"
)

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

// MachineID hashes a machine name into the trace-context source id the
// net frame header carries — FNV-1a, deterministic across runs.
func MachineID(name string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * fnvPrime
	}
	return h
}

// FlowID derives a deterministic flow id from a trace-context (source
// machine id, span id) — both ends of a wire transfer compute the same
// id from the bits the frame header carries.
func FlowID(src, span uint64) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < 8; i++ {
		h = (h ^ (src >> (8 * i) & 0xff)) * fnvPrime
	}
	for i := 0; i < 8; i++ {
		h = (h ^ (span >> (8 * i) & 0xff)) * fnvPrime
	}
	return h
}

// Timeline is one tracer's contribution to a Chrome export. A named
// timeline is one machine of a merged fleet export; the unnamed one is a
// machine looked at on its own.
type Timeline struct {
	Name string
	T    *Tracer
}

// chromeEvent is one record in the Chrome trace-event JSON array format.
// Timestamps and durations are microseconds of virtual time; Perfetto and
// chrome://tracing both load this shape directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	Bp   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// WriteChrome merges timelines into one Chrome/Perfetto trace: one process
// per timeline (pid = position + 1), one thread per track, counters on tid
// 0, and flow arrows binding FlowOut events to their FlowIn counterparts
// across processes. Output is deterministic for deterministic inputs:
// timelines in slice order, events in collection order, args with sorted
// keys (encoding/json).
//
// A named timeline gets a process_name row and is a member of a
// determinism-checked artifact, so it leaves out what varies run to run:
// host-clock diagnostics (the _host_ns arg convention) and span ids, which
// every goroutine that traces draws from one counter. The unnamed export
// keeps both.
func WriteChrome(w io.Writer, timelines []Timeline) error {
	out := []chromeEvent{}
	for i, tl := range timelines {
		pid, named := i+1, tl.Name != ""
		if named {
			out = append(out, chromeEvent{
				Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": tl.Name},
			})
		}
		for tr := Track(0); tr < numTracks; tr++ {
			out = append(out, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: int(tr) + 1,
				Args: map[string]any{"name": tr.String()},
			})
		}
		for _, ev := range tl.T.Events() {
			ce := chromeEvent{
				Name: ev.Name,
				Ts:   usec(ev.Start),
				Pid:  pid,
				Tid:  int(ev.Track) + 1,
			}
			switch ev.Kind {
			case KindSpan:
				ce.Ph = "X"
				ce.Dur = usec(ev.Dur)
				if !named {
					ce.ID = fmt.Sprintf("%d", ev.ID)
				}
			case KindInstant:
				ce.Ph = "i"
			case KindCounter:
				ce.Ph = "C"
				ce.Tid = 0
				ce.Args = map[string]any{"value": ev.Value}
			}
			setArg := func(key string, v any) {
				if ce.Args == nil {
					ce.Args = make(map[string]any, len(ev.Args)+1)
				}
				ce.Args[key] = v
			}
			var flows []chromeEvent
			for _, a := range ev.Args {
				if named && strings.HasSuffix(a.Key, "_host_ns") {
					continue
				}
				setArg(a.Key, a.Value())
				if a.isStr {
					continue
				}
				// Flow phases ride on the same slice: "s" anchored at the end
				// of the producing span (causality leaves when the work is
				// done), "f" with bp:"e" at the start of the consuming one.
				switch a.Key {
				case FlowOut:
					flows = append(flows, chromeEvent{
						Name: "flow", Ph: "s", Pid: pid, Tid: ce.Tid,
						Ts: usec(ev.Start + ev.Dur), ID: fmt.Sprintf("%d", uint64(a.Int)),
					})
				case FlowIn:
					flows = append(flows, chromeEvent{
						Name: "flow", Ph: "f", Bp: "e", Pid: pid, Tid: ce.Tid,
						Ts: usec(ev.Start), ID: fmt.Sprintf("%d", uint64(a.Int)),
					})
				}
			}
			if ev.Parent != 0 {
				setArg("parent", ev.Parent)
			}
			out = append(out, ce)
			out = append(out, flows...)
		}
	}
	return json.NewEncoder(w).Encode(out)
}

// Rollup renders a text summary: counters, gauges, histograms with
// p50/p95/p99, then total span time by name per track.
func (t *Tracer) Rollup() string {
	if t == nil {
		return "trace: disabled\n"
	}
	var b strings.Builder
	m := t.Metrics()
	for _, sec := range []struct {
		title string
		vals  []NamedValue
	}{{"counters", m.Counters}, {"gauges", m.Gauges}} {
		if len(sec.vals) > 0 {
			fmt.Fprintf(&b, "%s:\n", sec.title)
			for _, v := range sec.vals {
				fmt.Fprintf(&b, "  %-28s %d\n", v.Name, v.Value)
			}
		}
	}
	if len(m.Histograms) > 0 {
		fmt.Fprintf(&b, "histograms:\n")
		for _, h := range m.Histograms {
			fmt.Fprintf(&b, "  %-28s n=%-6d min=%-10d p50=%-10d p95=%-10d p99=%-10d max=%d\n",
				h.Name, h.Count, h.Min, h.P50, h.P95, h.P99, h.Max)
		}
	}
	type key struct {
		track Track
		name  string
	}
	totals := make(map[key]time.Duration)
	counts := make(map[key]int64)
	var keys []key
	for _, ev := range t.Events() {
		if ev.Kind != KindSpan {
			continue
		}
		k := key{ev.Track, ev.Name}
		if _, ok := totals[k]; !ok {
			keys = append(keys, k)
		}
		totals[k] += ev.Dur
		counts[k]++
	}
	if len(keys) > 0 {
		slices.SortFunc(keys, func(a, b key) int {
			return cmp.Or(cmp.Compare(a.track, b.track), cmp.Compare(a.name, b.name))
		})
		fmt.Fprintf(&b, "spans (virtual time):\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "  %-9s %-24s n=%-6d total=%s\n",
				k.track.String(), k.name, counts[k], totals[k])
		}
	}
	if b.Len() == 0 {
		return "trace: no events\n"
	}
	return b.String()
}

// TimelineTail renders the last n events as one line each — appended to
// harness failures so a crash sweep dumps the moments before the cut.
func (t *Tracer) TimelineTail(n int) string {
	if t == nil {
		return ""
	}
	events := t.Events()
	if len(events) > n {
		events = events[len(events)-n:]
	}
	var b strings.Builder
	for _, ev := range events {
		switch ev.Kind {
		case KindSpan:
			fmt.Fprintf(&b, "  %12s +%-10s %-9s %s", ev.Start, ev.Dur, ev.Track.String(), ev.Name)
		case KindInstant:
			fmt.Fprintf(&b, "  %12s !          %-9s %s", ev.Start, ev.Track.String(), ev.Name)
		case KindCounter:
			fmt.Fprintf(&b, "  %12s C          %-9s %s=%d", ev.Start, "", ev.Name, ev.Value)
		}
		for _, a := range ev.Args {
			fmt.Fprintf(&b, " %s=%v", a.Key, a.Value())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Package experiments regenerates every table and figure of the paper's
// evaluation (§9) on the simulated substrate. Each experiment boots fresh
// machines with aurora.NewMachine — the machine users boot, flight recorder
// included — runs the workload, and returns a structured result whose
// Render method prints rows/series matching the paper's.
//
// Absolute numbers come from the calibrated cost model (internal/clock) and
// are expected to land in the paper's ballpark; the claims each experiment
// must preserve — who wins, by roughly what factor, where crossovers fall —
// are noted per experiment and recorded against the paper in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Scale selects experiment sizing: Full matches the paper's parameters;
// Quick shrinks working sets so the whole suite runs in CI time.
type Scale int

// Scales.
const (
	Quick Scale = iota
	Full
)

// percentile returns the element at rank len(s)*perMille/1000 of s sorted
// ascending (the last one when the rank runs off the end), or 0 for an empty
// s. It sorts s in place.
func percentile(s []time.Duration, perMille int) time.Duration {
	if len(s) == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[min(len(s)*perMille/1000, len(s)-1)]
}

// fmtDur prints a duration the way the paper's tables do.
func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%.0f ns", float64(d.Nanoseconds()))
	case d < time.Millisecond:
		return fmt.Sprintf("%.1f us", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.1f ms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2f s", d.Seconds())
	}
}

// fmtBytes prints sizes in binary units.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// fmtOps prints an ops/sec figure compactly.
func fmtOps(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2f M", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.0f k", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// table renders aligned rows.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// compareReports prints, for every metric of two reports, B's change against
// A and the limit it is held to: the end-to-end bound, or exact equality for
// values that must repeat bit for bit (same seed, scale and seconds only). A
// metric that only one report has, that was computed by another percentile
// rule or from another part of the run, that rests on another sample count
// for the same seed, or that went from 0 to a value, is a breach too: the two
// figures are then not the same measurement. It returns 1 on any breach. A
// and B are report files, or directories holding same-named report files.
func compareReports(a, b string, w io.Writer) int {
	pairs, err := reportPairs(a, b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	breaches := 0
	for _, p := range pairs {
		ra, err := readReport(p[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		rb, err := readReport(p[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		breaches += compareOne(ra, rb, w)
	}
	if breaches > 0 {
		fmt.Fprintf(w, "%d breach(es)\n", breaches)
		return 1
	}
	fmt.Fprintln(w, "within bounds")
	return 0
}

func reportPairs(a, b string) ([][2]string, error) {
	st, err := os.Stat(a)
	if err != nil {
		return nil, err
	}
	if !st.IsDir() {
		return [][2]string{{a, b}}, nil
	}
	names, err := filepath.Glob(filepath.Join(a, "*.json"))
	if err != nil {
		return nil, err
	}
	var pairs [][2]string
	for _, n := range names {
		pairs = append(pairs, [2]string{n, filepath.Join(b, filepath.Base(n))})
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("no *.json reports in %s", a)
	}
	return pairs, nil
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func compareOne(a, b *report, w io.Writer) (breaches int) {
	fmt.Fprintf(w, "%s  A: seed=%d commit=%s   B: seed=%d commit=%s\n", a.Workload, a.Meta.Seed, a.Meta.Commit, b.Meta.Seed, b.Meta.Commit)
	if a.Workload != b.Workload || a.Meta.Scale != b.Meta.Scale || a.Meta.Seconds != b.Meta.Seconds || a.Meta.Traced != b.Meta.Traced {
		fmt.Fprintln(w, "  BREACH: the two reports are not the same workload, scale, seconds and trace mode")
		return 1
	}
	sameInputs := a.Meta.Seed == b.Meta.Seed
	if b.Failed > 0 || !b.Correct {
		fmt.Fprintf(w, "  BREACH: B failed %d of %d (%s)\n", b.Failed, b.Attempted, b.FirstFail)
		breaches++
	}
	names := make([]string, 0, len(a.Metrics))
	for name := range a.Metrics {
		names = append(names, name)
	}
	for name := range b.Metrics {
		if _, ok := a.Metrics[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		ma, inA := a.Metrics[name]
		mb, inB := b.Metrics[name]
		mismatch := ""
		switch {
		case !inA || !inB:
			mismatch = "is in only one of the reports"
		case ma.Rule != mb.Rule || ma.Phase != mb.Phase:
			mismatch = fmt.Sprintf("is %s of %s in A, %s of %s in B", ma.Rule, ma.Phase, mb.Rule, mb.Phase)
		case sameInputs && ma.N != mb.N:
			mismatch = fmt.Sprintf("rests on %d samples in A, %d in B, on the same seed", ma.N, mb.N)
		case ma.Value == 0 && mb.Value != 0:
			mismatch = fmt.Sprintf("was 0 in A and is %g in B", mb.Value)
		}
		if mismatch != "" {
			fmt.Fprintf(w, "  BREACH: %s %s\n", name, mismatch)
			breaches++
			continue
		}
		// worse is B's change in the direction that counts against it.
		worse := ratio(mb.Value-ma.Value, ma.Value)
		if ma.Better == "higher" {
			worse = -worse
		}
		verdict, limit := "", "-"
		switch {
		case ma.Exact && sameInputs:
			limit = "exact"
			if ma.Value != mb.Value {
				verdict = "BREACH"
			}
		case ma.Bound > 0:
			limit = fmt.Sprintf("%.0f%%", 100*ma.Bound)
			if worse > ma.Bound {
				verdict = "BREACH"
			}
		}
		if verdict != "" {
			breaches++
		}
		fmt.Fprintf(w, "  %-36s %14.6g -> %-14.6g %+7.2f%% worse  limit %-6s %s\n", name, ma.Value, mb.Value, 100*worse, limit, verdict)
	}
	return breaches
}

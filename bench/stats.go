package main

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// tailIndex is the percentile rule every tail metric follows, as a 0-based
// rank among n sorted samples: the nearest rank of the target percentile,
// lowered until ten samples lie beyond it, and never below the median. A
// rank with fewer than ten samples beyond it is set by a handful of outliers,
// which makes it useless as a regression signal; the report names the
// percentile the rank stands for.
func tailIndex(n int, target float64) int {
	i := int(math.Ceil(target*float64(n)-1e-9)) - 1 // 1000 samples support a p99, rounding or not
	if i > n-11 {
		i = n - 11
	}
	if mid := (n - 1) / 2; i < mid {
		i = mid
	}
	return i
}

// ruleLabel names the percentile that 0-based rank i of n stands for ("p50", "p99").
func ruleLabel(i, n int) string {
	if n == 0 {
		return "no samples"
	}
	return fmt.Sprintf("p%.4g", 100*float64(i+1)/float64(n))
}

// median is the middle sample of vs, or the mean of the two middle ones; vs
// is sorted in place. It is the p50 of the virtual-clock series.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	sort.Float64s(vs)
	return (vs[(n-1)/2] + vs[n/2]) / 2
}

// midmean is the mean of the samples between the quartiles of vs (the
// interquartile mean); vs is sorted in place. It is the location every
// host-clock figure is reported by: like the median it ignores the quarter of
// the samples on either side, where the stalls of a shared host land, but it
// rests on half the samples and not on one or two, which on the short series
// (4 to 40 restores or syncs, rising along their chain) halves its scatter
// from run to run.
func midmean(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	sort.Float64s(vs)
	mid := vs[n/4 : n-n/4]
	var sum float64
	for _, v := range mid {
		sum += v
	}
	return sum / float64(len(mid))
}

// series collects the paired host and virtual durations (ns) of one kind of
// call, with the host time each call started at, which is what its slowdown
// is looked up by. Samples are kept whole: the longest series is one entry
// per checkpoint, so a run holds at most a few hundred thousand.
type series struct {
	at, host, virt []float64
}

func (s *series) add(at int64, hostNS, virtNS float64) {
	s.at = append(s.at, float64(at))
	s.host = append(s.host, hostNS)
	s.virt = append(s.virt, virtNS)
}

// hist is a log-linear histogram for the per-op virtual latencies, of which
// a run has millions: 1024 linear sub-buckets per power of two, so a bucket
// is under 0.1 % wide. A quantile is interpolated linearly by rank inside its
// bucket, which keeps it a pure function of the samples.
type hist struct {
	counts [(64 - histBits + 1) * histSub]int64
	n      int64
}

const (
	histBits = 10
	histSub  = 1 << histBits
)

func histBucket(v int64) int {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // v in [2^exp, 2^(exp+1))
	sub := int((v >> (uint(exp) - histBits)) & (histSub - 1))
	return (exp-histBits+1)*histSub + sub
}

// histBounds are the smallest and largest values that land in bucket b.
func histBounds(b int) (lo, hi int64) {
	if b < histSub {
		return int64(b), int64(b)
	}
	exp := uint(b/histSub + histBits - 1)
	sub := int64(b % histSub)
	lo = 1<<exp | sub<<(exp-histBits)
	return lo, lo + 1<<(exp-histBits) - 1
}

func (h *hist) add(v int64) {
	h.counts[histBucket(v)]++
	h.n++
}

func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := histBounds(b)
			return float64(lo) + float64(hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	_, hi := histBounds(len(h.counts) - 1)
	return float64(hi)
}

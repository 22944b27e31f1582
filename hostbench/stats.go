package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middle values for an
// even count); xs is not modified. It returns 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailMinBeyond = 10

// tail returns the highest percentile of xs that still has at least
// tailMinBeyond samples beyond it: with n samples in ascending order that
// is the sample at rank n-10 (1-based), the percentile 100*(n-10)/n. ok is
// false when there are too few samples for any percentile to qualify.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n <= tailMinBeyond {
		return 0, 0, false
	}
	rank := n - tailMinBeyond
	return sorted(xs)[rank-1], 100 * float64(rank) / float64(n), true
}

// throughput aggregates per-op work over the whole measured window: total
// work divided by total host seconds, not a mean of per-op rates (which
// would overweight fast ops).
func throughput(work, secs []float64) float64 {
	var w, s float64
	for i := range work {
		w += work[i]
		s += secs[i]
	}
	if s == 0 {
		return math.NaN()
	}
	return w / s
}

package main

import (
	"fmt"
	"sort"
)

// minBeyond is how many samples must lie above a percentile's rank
// before the benchmark reports that percentile as a tail.
const minBeyond = 10

// tailLadder lists the candidate tail percentiles in permille, highest
// first.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// rank is the 1-based nearest rank of permille pm among n sorted
// samples: ceil(pm·n/1000), at least 1.
func rank(pm, n int) int {
	return max(1, (pm*n+999)/1000)
}

// tailPermille returns the highest ladder percentile (in permille) that
// leaves at least minBeyond of n samples beyond its rank; ok is false
// when even the median leaves fewer.
func tailPermille(n int) (pm int, ok bool) {
	for _, pm := range tailLadder {
		if n-rank(pm, n) >= minBeyond {
			return pm, true
		}
	}
	return 0, false
}

// quantile returns the nearest-rank permille-pm quantile of xs (0 for
// no samples). xs is sorted in place.
func quantile(xs []float64, pm int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(pm, len(xs))-1]
}

// median is the middle value of xs, averaging the two middle values of
// an even count (0 for no samples). xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentName renders a permille as a percentile label, e.g. 990 → "p99".
func percentName(pm int) string {
	if pm%10 == 0 {
		return fmt.Sprintf("p%d", pm/10)
	}
	return fmt.Sprintf("p%d.%d", pm/10, pm%10)
}

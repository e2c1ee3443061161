package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// minBeyond is the guide's rule for reporting a percentile: at least this
// many samples must lie beyond it, or the number is one slow request away
// from being a different number.
const minBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rankOf is the nearest-rank index (1-based) of the p-th percentile among n
// samples.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples strictly past the p-th percentile's rank.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rankOf(n, p)
}

// percentile returns the nearest-rank p-th percentile of s, which must be
// sorted ascending and non-empty.
func percentile(s []float64, p float64) float64 { return s[rankOf(len(s), p)-1] }

// errShortTail marks a percentile the sample cannot support.
var errShortTail = errors.New("too few samples beyond the percentile")

// tailPercentile is percentile with the ten-samples-beyond rule enforced: a
// tail the sample cannot support is an error, never a quietly noisy number.
func tailPercentile(s []float64, p float64, what string) (float64, error) {
	if b := beyond(len(s), p); b < minBeyond {
		return 0, fmt.Errorf("%s: p%g needs %d samples beyond it, have %d of %d — lengthen the window or shrink the op: %w",
			what, p, minBeyond, b, len(s), errShortTail)
	}
	return percentile(s, p), nil
}

// median returns the middle of xs (mean of the two middles for even n), 0
// for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method) so -calibrate computes the same spread the driver
// does. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// steadiness number the driver gates on.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// summarize renders one timing class for the human-readable report: sample
// count and quartiles.
func summarize(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("n=%d q1=%.4g q2=%.4g q3=%.4g", len(xs), q1, q2, q3)
}

package main

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"time"
)

// tailLadder is the set of tail percentiles the benchmark may report, from
// the highest down. A run reports the highest one that still has at least
// minTail samples beyond it.
var tailLadder = []float64{99.9, 99, 90}

// minTail is how many samples must lie beyond a reported tail percentile.
const minTail = 10

// tailPercentile returns the highest percentile of tailLadder that has at
// least minTail of n samples beyond it, and false when none has.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= minTail-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100):
// the smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// median returns the middle sample of xs, or the mean of the two middle
// samples when len(xs) is even.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkName rejects a metric or workload name outside [A-Za-z0-9_.-]
// (leading letter or digit, at most 64 characters).
func checkName(name string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("invalid name %q: want a letter or digit then up to 63 of [A-Za-z0-9_.-]", name)
	}
	return nil
}

// checkUnit rejects a unit outside [A-Za-z0-9_/%.-] or longer than 16.
func checkUnit(unit string) error {
	if !unitRE.MatchString(unit) {
		return fmt.Errorf("invalid unit %q: want 1 to 16 of [A-Za-z0-9_/%%.-]", unit)
	}
	return nil
}

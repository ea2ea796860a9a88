package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of the samples,
// or 0 for none. Nearest rank never interpolates, so the value is always one
// that was measured.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// median is the 0.5 nearest-rank percentile.
func median(samples []float64) float64 { return percentile(samples, 0.5) }

// best returns the best repetition: the largest sample when higher is
// better, the smallest otherwise. The timed code is deterministic and the
// noise of a shared host only ever adds time, so the best repetition is the
// one closest to what the code costs.
func best(samples []float64, higherIsBetter bool) float64 {
	if len(samples) == 0 {
		return 0
	}
	b := samples[0]
	for _, v := range samples[1:] {
		if (higherIsBetter && v > b) || (!higherIsBetter && v < b) {
			b = v
		}
	}
	return b
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method), so a
// spread computed here matches what the benchmark driver computes.
func quartiles(values []float64) (q1, med, q3 float64) {
	n := len(values)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return values[0], values[0], values[0]
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median — the run-to-run spread the benchmark contract bounds.
func quartileSpread(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

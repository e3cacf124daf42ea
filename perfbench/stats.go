package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples.
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

// percentile returns the nearest-rank p-th percentile of xs: the
// smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(float64(p)*float64(len(s))/100)) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tailPct is the reporting rule for a latency tail: the highest
// percentile, capped at 90, that leaves at least ten samples above
// it, so a tail figure never rests on a handful of samples. Below 100
// samples that is a lower percentile than p90; below 20 samples no
// percentile above the median qualifies and the median is reported.
func tailPct(n int) int {
	for p := 90; p > 50; p-- {
		if n-int(math.Ceil(float64(p)*float64(n)/100)) >= 10 {
			return p
		}
	}
	return 50
}

// timing is one latency distribution as the benchmark reports it: the
// median, the tail percentile chosen by tailPct, and the sample count.
type timing struct {
	N    int
	P50  float64
	Tail float64
	Pct  int
}

func summarize(xs []float64) timing {
	p := tailPct(len(xs))
	t := timing{N: len(xs), P50: median(xs), Pct: p}
	if t.Tail = t.P50; p > 50 {
		t.Tail = percentile(xs, p)
	}
	return t
}

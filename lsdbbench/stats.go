package main

import (
	"fmt"
	"math"
	"sort"
)

// dist summarises one set of latency samples (milliseconds unless the
// caller says otherwise). Failed operations are recorded as +Inf: a
// request that failed or was refused misses every latency limit.
type dist struct {
	n      int
	p50    float64
	tail   float64
	tailAt string // the percentile the tail is, e.g. "p95"
}

// tailPercentiles are the percentiles a tail can be, lowest first.
var tailPercentiles = []float64{50, 60, 70, 75, 80, 90, 95, 99, 99.9}

// summarise sorts xs in place and returns its median and tail, both
// nearest-rank order statistics. The tail is the highest of
// tailPercentiles with at least ten samples beyond it, so it rests on
// at least ten observations; with fewer than 20 samples there is none,
// and the tail is the maximum, named "max".
func summarise(xs []float64) dist {
	d := dist{n: len(xs)}
	if len(xs) == 0 {
		return d
	}
	sort.Float64s(xs)
	d.p50 = rank(xs, 50)
	d.tail, d.tailAt = xs[len(xs)-1], "max"
	for _, p := range tailPercentiles {
		i := int(math.Ceil(p/100*float64(len(xs)))) - 1
		if len(xs)-1-i >= 10 {
			d.tail, d.tailAt = xs[i], fmt.Sprintf("p%g", p)
		}
	}
	return d
}

// rank is the nearest-rank p-th percentile of sorted xs.
func rank(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// median returns the nearest-rank median of xs without reordering it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return rank(c, 50)
}

// finite replaces +Inf (a failed operation) by limit, so a summary
// stays printable; the failure itself is counted separately.
func finite(v, limit float64) float64 {
	if math.IsInf(v, 1) {
		return limit
	}
	return v
}

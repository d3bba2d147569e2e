package main

import (
	"math"
	"sort"
	"strconv"
	"time"
)

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics (the "type 7" definition); xs is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := math.Floor(h)
	i := int(lo)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (h-lo)*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder are the percentiles a tail metric may report. It stops at
// p95: beyond it a 2-CPU host's tails are set by a handful of GC and
// scheduler stalls per run, which no run length makes repeatable.
var tailLadder = []float64{0.5, 0.75, 0.9, 0.95}

// tailPercentile is the highest ladder percentile that leaves at least 10
// samples beyond it when a class has n samples. A workload passes its
// guaranteed sample count, so the percentile is fixed per class.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if float64(n)*(1-p) >= 10 {
			best = p
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ladder returns xs's value at every tail-ladder percentile, for reports.
func ladder(xs []float64) map[string]float64 {
	out := map[string]float64{}
	for _, p := range tailLadder {
		out[strconv.FormatFloat(100*p, 'f', -1, 64)] = quantile(xs, p)
	}
	return out
}

package main

import (
	"math"
	"regexp"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a p99 drawn from 200 samples rests on two values and
// says little, so the benchmark reports the highest percentile the
// sample actually supports.
const minBeyond = 10

// tail is a reported tail latency: the percentile it was taken at, its
// value, and the number of samples it was drawn from.
type tail struct {
	P     float64 // percentile in [0, 100]
	Value float64
	N     int
}

// tailPercentile returns the highest percentile, at most want, that
// has at least minBeyond samples beyond it. A sample too small to
// support any tail (n <= minBeyond) reports its median. xs is not
// modified.
func tailPercentile(xs []float64, want float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	p := want
	if supported := 100 - 100*float64(minBeyond)/float64(n); supported < p {
		p = supported
	}
	if p < 50 {
		p = 50
	}
	return tail{P: p, Value: quantile(xs, p/100), N: n}
}

// quantile returns the nearest-rank q-quantile (q in [0, 1]) of xs
// without modifying it; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the middle value (the mean of the middle two for an even
// count); NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// windowed groups xs into consecutive windows by their time offsets
// and returns f of each window that holds enough samples for a p99
// with minBeyond samples beyond it. A stall of the shared host spoils
// one window, not the whole run, so callers report the median over
// windows.
func windowed(offsets []time.Duration, xs []float64, window time.Duration, f func([]float64) float64) []float64 {
	byWin := map[time.Duration][]float64{}
	for i, off := range offsets {
		w := off / window
		byWin[w] = append(byWin[w], xs[i])
	}
	var out []float64 // in no particular order
	for _, vs := range byWin {
		if len(vs) >= 100*minBeyond {
			out = append(out, f(vs))
		}
	}
	return out
}

func p99Of(xs []float64) float64 { return quantile(xs, 0.99) }

// metricName is the form every metric name must take.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the linear-interpolation quantile of sorted data (the
// "inclusive" method: q=0 is the minimum, q=1 the maximum).
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// spread is the interquartile range as a share of the median: the
// steadiness figure printed for every time metric.
func spread(xs []float64) float64 {
	s := sorted(xs)
	m := quantile(s, 0.5)
	if len(s) < 2 || m == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / m
}

// minBeyond is how many samples must lie beyond a tail percentile before it
// is reported: with fewer, the percentile is one or two unlucky samples.
const minBeyond = 10

// tail returns the q-quantile of xs, or an error when fewer than minBeyond
// samples lie beyond it.
func tail(xs []float64, q float64) (float64, error) {
	beyond := int(math.Floor(float64(len(xs)) * (1 - q)))
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minBeyond, beyond, len(xs))
	}
	return quantile(sorted(xs), q), nil
}

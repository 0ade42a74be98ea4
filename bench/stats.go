package main

import (
	"fmt"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []int{99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of tailLadder that leaves at
// least minBeyond of n samples above it.
func tailPercentile(n int) (int, error) {
	for _, p := range tailLadder {
		if n*(100-p) >= minBeyond*100 {
			return p, nil
		}
	}
	return 0, fmt.Errorf("%d samples: the lowest reported percentile needs %d beyond it", n, minBeyond)
}

// percentile returns the p-th percentile (0..100) of xs, interpolating
// linearly between the two nearest ranks. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

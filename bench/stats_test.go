package main

import (
	"math"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{5000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {40, 75}, {39, 50}, {20, 50},
	} {
		got, err := tailPercentile(c.n)
		if err != nil || got != c.want {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d", c.n, got, err, c.want)
		}
		if beyond := float64(c.n) * float64(100-got) / 100; beyond < minBeyond {
			t.Errorf("n=%d: p%d leaves %.1f samples beyond it", c.n, got, beyond)
		}
	}
	for _, n := range []int{0, 1, 19} {
		if p, err := tailPercentile(n); err == nil {
			t.Errorf("tailPercentile(%d) = %d, want an error", n, p)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by nearest rank; xs need not
// be sorted and is left untouched. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
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

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the tail percentile reported for n samples: p99 when at
// least ten samples lie beyond it, otherwise the highest percentile that
// still has ten beyond it (never below the median).
func tailQuantile(n int) float64 {
	q := 1 - 10/float64(n)
	if q > 0.99 {
		q = 0.99
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// tail returns xs at tailQuantile(len(xs)).
func tail(xs []float64) float64 { return quantile(xs, tailQuantile(len(xs))) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// durationsMS converts durations to float milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func sumInts(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// paired runs a and b on each of n inputs back to back, alternating which
// goes first, and returns the summed times of b over those of a. Pairing
// cancels the drift of a shared host between the two sides.
func paired(n int, a, b func(i int) (time.Duration, error)) (float64, error) {
	var ta, tb time.Duration
	for i := 0; i < n; i++ {
		first, second, t1, t2 := a, b, &ta, &tb
		if i%2 == 1 {
			first, second, t1, t2 = b, a, &tb, &ta
		}
		d, err := first(i)
		if err != nil {
			return 0, err
		}
		*t1 += d
		if d, err = second(i); err != nil {
			return 0, err
		}
		*t2 += d
	}
	return tb.Seconds() / ta.Seconds(), nil
}

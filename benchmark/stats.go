package main

import (
	"math"
	"sort"
)

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sortedCopy(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first quartile, median and third quartile of v
// the way Python's statistics.quantiles(v, n=4) does (exclusive method),
// which is what the driver applies to the benchmark's runs. Fewer than
// two samples have no spread: all three are the sample itself.
func quartiles(v []float64) (q1, med, q3 float64) {
	if len(v) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if len(v) == 1 {
		return v[0], v[0], v[0]
	}
	s := sortedCopy(v)
	const n = 4
	ld, m := len(s), len(s)+1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), median(s), cut(3)
}

// percentile is the nearest-rank p-th percentile (p in (0,100]).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sortedCopy(v)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// spread is the inter-quartile distance as a share of the median.
func spread(q1, med, q3 float64) float64 {
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

func maxOf(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

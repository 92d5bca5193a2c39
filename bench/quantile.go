package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile of vals by nearest rank (q = 1 is the
// maximum). vals is sorted in place.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	i := int(math.Ceil(q*float64(len(vals)))) - 1
	return vals[min(max(i, 0), len(vals)-1)]
}

// quartiles returns the first quartile, median and third quartile of vals
// the way Python's statistics.quantiles(vals, n=4) computes them (the
// default "exclusive" method), so spreads read the same as the
// acceptance check computes them. A single value is all three.
func quartiles(vals []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := len(d) + 1
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// median returns the middle value of vals (the mean of the two middle
// values for an even count).
func median(vals []float64) float64 {
	_, m, _ := quartiles(vals)
	return m
}

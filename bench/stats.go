package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs, which
// it sorts in place. It returns NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// tailPercentile is the highest of p99.9, p99, p90 and p50 that keeps at
// least ten of n samples beyond it: a tail reported from fewer samples
// is one outlier, not a percentile.
func tailPercentile(n int) float64 {
	for _, p := range []float64{0.999, 0.99, 0.9} {
		if float64(n)*(1-p) >= 10-1e-9 {
			return p
		}
	}
	return 0.5
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so the
// spreads this harness reports match that reference computation. It
// needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// unitMedians returns, unit by unit, the median over the rounds: rows[r][k]
// is what round r measured for unit k of the work, and every round does
// the same work.
func unitMedians(rows [][]float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	out := make([]float64, len(rows[0]))
	col := make([]float64, len(rows))
	for k := range out {
		for r, row := range rows {
			col[r] = row[k]
		}
		out[k] = median(col)
	}
	return out
}

// rescale returns rows with each value multiplied by its factor in f,
// which has the shape of rows.
func rescale(rows, f [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for r, row := range rows {
		out[r] = make([]float64, len(row))
		for k, x := range row {
			out[r][k] = x * f[r][k]
		}
	}
	return out
}

// ones returns factors of 1 in the shape of rows: the host's own speed.
func ones(rows [][]float64) [][]float64 {
	f := make([][]float64, len(rows))
	for r, row := range rows {
		f[r] = repeat(1, len(row))
	}
	return f
}

// repeat returns n copies of x.
func repeat(x float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = x
	}
	return out
}

// perRound returns each round's total over its units divided by per: how
// the host's speed moved from round to round.
func perRound(rows [][]float64, per float64) []float64 {
	out := make([]float64, len(rows))
	for r, row := range rows {
		out[r] = sum(row) / per
	}
	return out
}

// sum returns the sum of xs in index order.
func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

package main

import "testing"

func TestVerdict(t *testing.T) {
	lat := compareMetric{name: "latency_ms", better: "lower", bound: 0.1, endToEnd: true}
	seq := func(base, step float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base + step*float64(i%5)
		}
		return xs
	}
	for _, c := range []struct {
		name     string
		m        compareMetric
		old, cur []float64
		want     string
	}{
		{"faster in every pair", lat, seq(10, 0.1), seq(8, 0.1), "improved"},
		{"same distribution", lat, seq(10, 0.1), seq(10.4, -0.1), "no-worse"},
		{"slower beyond the bound", lat, seq(10, 0.1), seq(12, 0.1), "regressed"},
		{"slower within the bound", lat, seq(10, 0.1), seq(10.5, 0.1), "no-worse"},
		{"spread wider than the bound", lat, seq(10, 1), seq(10.5, 1), "unresolved"},
		{"exact count unchanged", compareMetric{better: "lower"}, []float64{7, 7}, []float64{7, 7}, "same (exact count)"},
		{"exact count moved", compareMetric{better: "lower"}, []float64{7, 7}, []float64{5, 5}, "changed (exact count)"},
		{"per-seed value unchanged", lat, []float64{3, 4, 5}, []float64{3, 4, 5}, "same (exact count)"},
		{"higher is better", compareMetric{better: "higher", bound: 0.1, endToEnd: true}, seq(100, 1), seq(80, 1), "regressed"},
	} {
		if got := verdict(c.m, c.old, c.cur); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

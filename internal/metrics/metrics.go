// Package metrics provides the statistics and rendering helpers the
// experiment harness uses: empirical CDFs (Figs. 2, 3, 14), mean/standard
// deviation summaries (Tables 3–4), step-series resampling for the
// utilization plots (Figs. 4, 5, 12, 17) and text Gantt charts for the
// stage-breakdown figures (Figs. 6, 11, 16).
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Degenerate-input contracts, shared by the summary helpers below and
// relied on by experiment tables that may aggregate zero samples (e.g. a
// fault sweep where every run of a cell failed):
//
//   - empty input is not an error: Mean, StdDev, Percentile and
//     CDF.Quantile return 0; TimeWeightedMeanStd returns (0, 0). The 0 is
//     a sentinel, not a statistic — callers that must distinguish "no
//     data" check len or CDF.N first.
//   - NaN never panics: a NaN sample propagates to NaN results (NaN
//     samples sort below all other values, so they also surface at low
//     percentiles); a NaN p/q/window bound yields NaN.
//   - out-of-range ranks clamp: Percentile(p≤0)/Quantile(q≤0) is the
//     minimum, Percentile(p≥100)/Quantile(q≥1) the maximum.

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation (0 for n < 2).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Percentile returns the p-th percentile (p ∈ [0,100]) using linear
// interpolation on the sorted copy of xs. Empty input yields 0, NaN p
// yields NaN, and p outside [0,100] clamps to the extremes.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if math.IsNaN(p) {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// CDF is an empirical cumulative distribution.
type CDF struct {
	xs []float64 // sorted
}

// NewCDF builds an empirical CDF from samples.
func NewCDF(samples []float64) *CDF {
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	return &CDF{xs: xs}
}

// N returns the sample count.
func (c *CDF) N() int { return len(c.xs) }

// At returns P(X ≤ x) ∈ [0,1].
func (c *CDF) At(x float64) float64 {
	if len(c.xs) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.xs, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.xs))
}

// Quantile returns the q-th quantile (q ∈ [0,1]) using the same linear
// interpolation as Percentile, so Quantile(p/100) ≡ Percentile(p) —
// including the degenerate cases (empty → 0, NaN q → NaN, clamping).
func (c *CDF) Quantile(q float64) float64 {
	n := len(c.xs)
	if n == 0 {
		return 0
	}
	if math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		return c.xs[0]
	}
	if q >= 1 {
		return c.xs[n-1]
	}
	rank := q * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return c.xs[lo]
	}
	frac := rank - float64(lo)
	return c.xs[lo]*(1-frac) + c.xs[hi]*frac
}

// Mean returns the sample mean.
func (c *CDF) Mean() float64 { return Mean(c.xs) }

// MarshalJSON serializes the distribution as a compact summary
// (n/mean/p50/p90/p99) rather than the raw samples, keeping JSON
// experiment summaries small and schema-stable.
func (c *CDF) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		N    int     `json:"n"`
		Mean float64 `json:"mean"`
		P50  float64 `json:"p50"`
		P90  float64 `json:"p90"`
		P99  float64 `json:"p99"`
	}{c.N(), c.Mean(), c.Quantile(0.5), c.Quantile(0.9), c.Quantile(0.99)})
}

// Table renders the CDF at the given x grid as "x  P%" rows.
func (c *CDF) Table(grid []float64) string {
	var b strings.Builder
	for _, x := range grid {
		fmt.Fprintf(&b, "%12.2f %8.1f%%\n", x, c.At(x)*100)
	}
	return b.String()
}

// StepPoint is one (time, value) step of a piecewise-constant series.
type StepPoint struct {
	T, V float64
}

// ResampleStep converts a step series (value V holds from its T until the
// next point's T, ending at end) into averages over fixed-width bins:
// bin i covers [start + i·width, start + (i+1)·width).
func ResampleStep(pts []StepPoint, start, end, width float64) []float64 {
	if width <= 0 || end <= start || len(pts) == 0 {
		return nil
	}
	nBins := int(math.Ceil((end - start) / width))
	out := make([]float64, nBins)
	for i := 0; i < len(pts); i++ {
		segStart := pts[i].T
		segEnd := end
		if i+1 < len(pts) {
			segEnd = pts[i+1].T
		}
		if segEnd <= start || segStart >= end {
			continue
		}
		if segStart < start {
			segStart = start
		}
		if segEnd > end {
			segEnd = end
		}
		v := pts[i].V
		b0 := int((segStart - start) / width)
		b1 := int(math.Ceil((segEnd - start) / width))
		for b := b0; b < b1 && b < nBins; b++ {
			binStart := start + float64(b)*width
			binEnd := binStart + width
			lo := math.Max(segStart, binStart)
			hi := math.Min(segEnd, binEnd)
			if hi > lo {
				out[b] += v * (hi - lo) / width
			}
		}
	}
	return out
}

// TimeWeightedMeanStd returns the time-weighted mean and standard
// deviation of a step series over [start, end]. An empty series, an
// inverted or zero-length window, or a window that does not overlap any
// segment yields (0, 0); NaN window bounds or NaN values propagate NaN.
func TimeWeightedMeanStd(pts []StepPoint, start, end float64) (mean, std float64) {
	if end <= start || len(pts) == 0 {
		return 0, 0
	}
	total, sum, sumSq := 0.0, 0.0, 0.0
	for i := 0; i < len(pts); i++ {
		segStart := pts[i].T
		segEnd := end
		if i+1 < len(pts) {
			segEnd = pts[i+1].T
		}
		if segEnd <= start || segStart >= end {
			continue
		}
		if segStart < start {
			segStart = start
		}
		if segEnd > end {
			segEnd = end
		}
		w := segEnd - segStart
		if w <= 0 {
			continue
		}
		total += w
		sum += pts[i].V * w
		sumSq += pts[i].V * pts[i].V * w
	}
	if total <= 0 {
		return 0, 0
	}
	mean = sum / total
	variance := sumSq/total - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance)
}

// GanttBar is one bar of a text Gantt chart, split into a shaded prefix
// (shuffle read in the paper's figures) and a plain remainder (compute +
// write).
type GanttBar struct {
	Label             string
	Start, Split, End float64 // Start ≤ Split ≤ End
}

// RenderGantt draws bars as rows of '░' (read) and '█' (compute+write)
// over a shared [0, max] axis that is width characters wide.
func RenderGantt(bars []GanttBar, width int) string {
	if width < 10 {
		width = 10
	}
	maxT := 0.0
	for _, b := range bars {
		if b.End > maxT {
			maxT = b.End
		}
	}
	if maxT <= 0 {
		return ""
	}
	labelW := 0
	for _, b := range bars {
		if len(b.Label) > labelW {
			labelW = len(b.Label)
		}
	}
	scale := float64(width) / maxT
	var sb strings.Builder
	for _, b := range bars {
		s := int(math.Round(b.Start * scale))
		m := int(math.Round(b.Split * scale))
		e := int(math.Round(b.End * scale))
		if s < 0 {
			s = 0
		}
		if s > width {
			s = width
		}
		if e > width {
			e = width
		}
		if e < s {
			e = s
		}
		if m < s {
			m = s
		}
		if m > e {
			m = e
		}
		fmt.Fprintf(&sb, "%-*s |%s%s%s|\n", labelW, b.Label,
			strings.Repeat(" ", s), strings.Repeat("░", m-s), strings.Repeat("█", e-m))
	}
	// The axis pad may hit zero (or go negative) when the makespan label is
	// wider than the chart; clamp instead of handing strings.Repeat a
	// negative count (which panics).
	axis := fmt.Sprintf("%.0fs", maxT)
	pad := width - len(axis)
	if pad < 1 {
		pad = 1
	}
	fmt.Fprintf(&sb, "%-*s  0%s%s\n", labelW, "", strings.Repeat(" ", pad), axis)
	return sb.String()
}

// Sparkline renders values as a compact unicode sparkline (for the
// utilization time-series figures in terminal output).
func Sparkline(vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	ticks := []rune("▁▂▃▄▅▆▇█")
	maxV := 0.0
	for _, v := range vals {
		if v > maxV {
			maxV = v
		}
	}
	var sb strings.Builder
	for _, v := range vals {
		idx := 0
		if maxV > 0 {
			idx = int(v / maxV * float64(len(ticks)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(ticks) {
			idx = len(ticks) - 1
		}
		sb.WriteRune(ticks[idx])
	}
	return sb.String()
}

package sim

import "math"

// waterFill computes a max-min fair allocation of capacity among consumers
// with demand caps. demands[i] may be +Inf (elastic consumer). weights, if
// non-nil, skew fair shares proportionally (used for job-first fairness);
// nil means equal weights. The returned allocations satisfy
// Σ alloc ≤ capacity and alloc[i] ≤ demands[i], and no consumer can gain
// without a lower-share consumer losing.
func waterFill(capacity float64, demands, weights []float64) []float64 {
	alloc := make([]float64, len(demands))
	waterFillInto(alloc, nil, capacity, demands, weights)
	return alloc
}

// waterFillInto is waterFill writing into caller-provided scratch: alloc
// must be zeroed and len(demands) long; active is an index scratch whose
// (possibly re-grown) backing array is returned for reuse. The fill order
// and arithmetic are identical to waterFill, so results are bit-equal.
func waterFillInto(alloc []float64, active []int, capacity float64, demands, weights []float64) []int {
	n := len(demands)
	if n == 0 || capacity <= 0 {
		return active
	}
	if cap(active) < n {
		active = make([]int, 0, n)
	}
	active = active[:0]
	for i := range demands {
		if demands[i] > 0 {
			active = append(active, i)
		}
	}
	remaining := capacity
	for len(active) > 0 && remaining > 1e-15 {
		wSum := 0.0
		for _, i := range active {
			wSum += weightOf(weights, i)
		}
		if wSum <= 0 {
			break
		}
		// Find consumers whose demand is below their proportional share;
		// they are satisfied exactly and removed.
		satisfiedAny := false
		next := active[:0]
		unit := remaining / wSum
		for _, i := range active {
			share := float64(unit * weightOf(weights, i))
			if demands[i] <= share+1e-15 {
				alloc[i] = demands[i]
				remaining -= demands[i]
				satisfiedAny = true
			} else {
				next = append(next, i)
			}
		}
		active = next
		if !satisfiedAny {
			// Everyone is elastic at this water level: split and finish.
			wSum = 0
			for _, i := range active {
				wSum += weightOf(weights, i)
			}
			for _, i := range active {
				alloc[i] = remaining * weightOf(weights, i) / wSum
			}
			remaining = 0
			break
		}
	}
	// Numerical guard: clamp tiny negatives.
	for i := range alloc {
		if alloc[i] < 0 || math.IsNaN(alloc[i]) {
			alloc[i] = 0
		}
	}
	return active
}

func weightOf(weights []float64, i int) float64 {
	if weights == nil {
		return 1
	}
	return weights[i]
}

// equalShare is waterFillInto's allocation to each of n ≥ 1 consumers of
// capacity c when every demand is elastic (+Inf) and weights are equal:
// the all-elastic split remaining·1/n, with n summed exactly, or 0 when
// no more than the fill loop's 1e-15 floor is left (or c is NaN).
func equalShare(c float64, n int) float64 {
	if !(c > 1e-15) {
		return 0
	}
	return c / float64(n)
}

package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"delaystage/internal/cluster"
)

func TestWaterFillElastic(t *testing.T) {
	inf := math.Inf(1)
	a := waterFill(10, []float64{inf, inf}, nil)
	if math.Abs(a[0]-5) > 1e-9 || math.Abs(a[1]-5) > 1e-9 {
		t.Fatalf("two elastic consumers: %v, want [5 5]", a)
	}
}

func TestWaterFillCappedRedistribution(t *testing.T) {
	inf := math.Inf(1)
	a := waterFill(10, []float64{2, inf}, nil)
	if math.Abs(a[0]-2) > 1e-9 || math.Abs(a[1]-8) > 1e-9 {
		t.Fatalf("capped + elastic: %v, want [2 8]", a)
	}
}

func TestWaterFillAllSatisfied(t *testing.T) {
	a := waterFill(10, []float64{1, 2, 3}, nil)
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(a[i]-want[i]) > 1e-9 {
			t.Fatalf("under-subscribed: %v, want %v", a, want)
		}
	}
}

func TestWaterFillCascade(t *testing.T) {
	// Demands 1, 4, inf over capacity 9: 1 satisfied; remaining 8 over
	// {4, inf} → equal shares 4 each; 4 is exactly satisfied.
	inf := math.Inf(1)
	a := waterFill(9, []float64{1, 4, inf}, nil)
	if math.Abs(a[0]-1) > 1e-9 || math.Abs(a[1]-4) > 1e-9 || math.Abs(a[2]-4) > 1e-9 {
		t.Fatalf("cascade: %v, want [1 4 4]", a)
	}
}

func TestWaterFillZeroCapacity(t *testing.T) {
	a := waterFill(0, []float64{1, 2}, nil)
	if a[0] != 0 || a[1] != 0 {
		t.Fatalf("zero capacity: %v", a)
	}
	if out := waterFill(5, nil, nil); len(out) != 0 {
		t.Fatalf("no consumers: %v", out)
	}
}

func TestWaterFillZeroDemand(t *testing.T) {
	inf := math.Inf(1)
	a := waterFill(10, []float64{0, inf}, nil)
	if a[0] != 0 || math.Abs(a[1]-10) > 1e-9 {
		t.Fatalf("zero-demand consumer: %v, want [0 10]", a)
	}
}

func TestWaterFillWeights(t *testing.T) {
	inf := math.Inf(1)
	// Weight 2:1 split of capacity 9.
	a := waterFill(9, []float64{inf, inf}, []float64{2, 1})
	if math.Abs(a[0]-6) > 1e-9 || math.Abs(a[1]-3) > 1e-9 {
		t.Fatalf("weighted: %v, want [6 3]", a)
	}
}

// Properties: feasibility (Σ ≤ C, a_i ≤ d_i), and work conservation when
// demand is sufficient.
func TestWaterFillProperties(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8%10) + 1
		capacity := float64(rng.Float64() * 100)
		demands := make([]float64, n)
		totalDemand := 0.0
		hasElastic := false
		for i := range demands {
			if rng.Float64() < 0.3 {
				demands[i] = math.Inf(1)
				hasElastic = true
			} else {
				demands[i] = float64(rng.Float64() * 40)
				totalDemand += demands[i]
			}
		}
		a := waterFill(capacity, demands, nil)
		sum := 0.0
		for i := range a {
			if a[i] < -1e-9 || a[i] > demands[i]+1e-9 {
				return false
			}
			sum += a[i]
		}
		if sum > capacity+1e-6 {
			return false
		}
		// Work conservation: if demand ≥ capacity (or any elastic), the
		// allocation must use (almost) all capacity.
		if hasElastic || totalDemand >= capacity {
			if sum < capacity-1e-6 {
				return false
			}
		} else if math.Abs(sum-totalDemand) > 1e-6 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Max-min fairness: no consumer with a smaller allocation could gain
// without a larger-allocation consumer losing — equivalently, every
// unsatisfied consumer gets at least the share of any other consumer.
func TestWaterFillMaxMin(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		capacity := 10 + float64(rng.Float64()*50)
		demands := make([]float64, n)
		for i := range demands {
			if rng.Float64() < 0.4 {
				demands[i] = math.Inf(1)
			} else {
				demands[i] = rng.Float64() * 30
			}
		}
		a := waterFill(capacity, demands, nil)
		for i := range a {
			satisfied := a[i] >= demands[i]-1e-9
			if satisfied {
				continue
			}
			// i is unsatisfied: nobody may hold more than a[i] + ε unless
			// capped below it.
			for j := range a {
				if a[j] > a[i]+1e-6 && a[j] > demands[j]-1e-9 == false {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEqualSplitReadShares: a read bucket with neither job weights nor a
// capped item takes the equal-split path, which must give every item the
// rate the water-fill gives it with all demands elastic, bit for bit —
// for 1 to 64 readers, at zero, sub-floor and ordinary capacities, with
// and without the contention loss, on a healthy and a slowed node.
func TestEqualSplitReadShares(t *testing.T) {
	inf := math.Inf(1)
	c := cluster.NewM4LargeCluster(2)
	for _, alpha := range []float64{0, 0.15} {
		e := newEngine(Options{Cluster: c, ContentionOverhead: alpha}, nil)
		e.nodeSlow = []float64{1, 2.5}
		for _, capacity := range []float64{0, 1e-16, 1e-15, 3e-15, 1, 7, 125e6, 1.1e9 / 3} {
			for w := range 2 {
				e.netBW[w] = capacity
				for n := 1; n <= 64; n++ {
					for i := range n {
						it := e.newItem(&stageInfo{key: skey{job: 0, stage: 1}}, w, w, phRead, 1)
						it.rate = float64(i) // stale
						e.addItem(it)
					}
					e.readNodeRates(w, nil)
					demands := make([]float64, n)
					for i := range demands {
						demands[i] = inf
					}
					want := make([]float64, n)
					waterFillInto(want, nil, e.contended(capacity/e.nodeSlow[w], n), demands, nil)
					for i, it := range e.readBk[w] {
						if math.Float64bits(it.rate) != math.Float64bits(want[i]) {
							t.Fatalf("α=%v capacity=%v node %d, %d readers: item %d rate %v, water-fill %v",
								alpha, capacity, w, n, i, it.rate, want[i])
						}
					}
					for _, it := range e.readBk[w] {
						e.freeItem(it)
					}
					e.items, e.readBk[w] = e.items[:0], e.readBk[w][:0]
				}
			}
		}
		e.release()
	}
	for _, capacity := range []float64{math.NaN(), inf, -1} {
		want := make([]float64, 3)
		waterFillInto(want, nil, capacity, []float64{inf, inf, inf}, nil)
		if got := equalShare(capacity, 3); math.Float64bits(got) != math.Float64bits(want[0]) {
			t.Errorf("capacity %v: equal share %v, water-fill %v", capacity, got, want[0])
		}
	}
}

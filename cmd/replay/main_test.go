package main

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// testOutcomes draws n job outcomes whose magnitudes spread over several
// orders, so any change in the summation order shows in the low bits.
func testOutcomes(n int, rng *rand.Rand) []outcome {
	out := make([]outcome, n)
	for i := range out {
		if rng.Float64() < 0.1 {
			out[i].failed = true
			continue
		}
		out[i] = outcome{
			jct: rng.ExpFloat64() * 1000,
			cpu: rng.Float64(),
			net: rng.Float64() / 3,
		}
	}
	return out
}

// sequential folds outcomes[:k] in job order: the reference state.
func sequential(outcomes []outcome, k int) *progress {
	p := &progress{}
	for _, o := range outcomes[:k] {
		p.fold(o)
	}
	return p
}

// TestPrefixFoldOrderInvariant: outcomes arriving in any index order —
// shuffled, or concurrently from several goroutines as shard workers
// deliver them — fold to the bit-identical progress (and checkpoint
// bytes) of a sequential replay, also when resuming from a saved prefix.
func TestPrefixFoldOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 200
	outcomes := testOutcomes(n, rng)
	want := encodeProgress([]*progress{sequential(outcomes, n)})
	for trial := 0; trial < 20; trial++ {
		start := 0
		if trial%2 == 1 {
			start = rng.Intn(n)
		}
		p := sequential(outcomes, start)
		f := newPrefixFold(p, n, nil)
		order := rng.Perm(n - start)
		if trial%4 == 3 {
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for j := w; j < len(order); j += 4 {
						if err := f.add(start+order[j], outcomes[start+order[j]]); err != nil {
							t.Error(err)
						}
					}
				}(w)
			}
			wg.Wait()
		} else {
			for _, k := range order {
				if err := f.add(start+k, outcomes[start+k]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if p.done != n {
			t.Fatalf("trial %d: folded %d/%d jobs", trial, p.done, n)
		}
		if got := encodeProgress([]*progress{p}); !bytes.Equal(got, want) {
			t.Fatalf("trial %d (start %d): progress differs from the in-order fold", trial, start)
		}
	}
}

// TestPrefixFoldSavesPrefixes: every checkpoint written while outcomes
// arrive out of order decodes, and equals the sequential state after
// exactly its done jobs — a kill at any moment leaves a resumable prefix.
func TestPrefixFoldSavesPrefixes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 120
	outcomes := testOutcomes(n, rng)
	other := &progress{done: 7, jcts: []float64{1, 2}, cpuInt: 0.5, failed: 5}
	p := &progress{}
	state := []*progress{other, p}
	var saves [][]byte
	f := newPrefixFold(p, n, func() error {
		saves = append(saves, encodeProgress(state))
		return nil
	})
	for _, i := range rng.Perm(n) {
		before := len(saves)
		done := p.done
		if err := f.add(i, outcomes[i]); err != nil {
			t.Fatal(err)
		}
		if advanced := p.done > done; advanced != (len(saves) > before) {
			t.Fatalf("add(%d): prefix %d→%d but %d saves", i, done, p.done, len(saves)-before)
		}
	}
	if len(saves) == 0 || p.done != n {
		t.Fatalf("%d saves, %d/%d jobs folded", len(saves), p.done, n)
	}
	last := -1
	for si, b := range saves {
		ps, err := decodeProgress(b, len(state))
		if err != nil {
			t.Fatalf("save %d: %v", si, err)
		}
		got := ps[1]
		if got.done <= last {
			t.Fatalf("save %d: prefix %d does not grow past %d", si, got.done, last)
		}
		last = got.done
		want := encodeProgress([]*progress{other, sequential(outcomes, got.done)})
		if !bytes.Equal(b, want) {
			t.Fatalf("save %d: not the sequential state after %d jobs", si, got.done)
		}
	}
}

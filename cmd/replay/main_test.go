package main

import (
	"bytes"
	"encoding/hex"
	"flag"
	"math/rand"
	"reflect"
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

// TestFlagSurface pins replay's flag names and defaults: a flag group shared
// with other commands must not add, drop or re-default any of them.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"approx-plan": "false", "blacklist-after": "0", "checkpoint-dir": "", "chrometrace": "",
		"events": "", "f": "", "fault-rate": "0", "fault-seed": "1", "json": "", "linger": "0s",
		"log-level": "info", "max-retries": "0", "mttf-horizon": "0", "node-mttf": "0",
		"resume": "false", "seed": "1", "serve": "", "shard-window": "0", "shards": "0",
		"slice-machines": "2", "slow-node-factor": "1", "slow-node-frac": "0", "speculate": "false",
		"straggler-factor": "1", "straggler-frac": "0", "variants": "",
	}
	got := map[string]string{}
	flags().fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flag surface changed:\n got %v\nwant %v", got, want)
	}
}

// TestConfigKeyPinned pins the flag part of the progress-checkpoint
// fingerprint to its established bytes: slice machines and seed, the ten
// fault numbers, -speculate, -approx-plan, then the variant names. Any
// change to them would make every saved checkpoint unusable.
func TestConfigKeyPinned(t *testing.T) {
	o := flags()
	if err := o.fs.Parse([]string{"-slice-machines", "3", "-seed", "7", "-fault-rate", "0.05",
		"-straggler-frac", "0.2", "-straggler-factor", "3.5", "-node-mttf", "2000", "-mttf-horizon", "500",
		"-slow-node-frac", "0.1", "-slow-node-factor", "2.5", "-fault-seed", "9", "-max-retries", "5",
		"-blacklist-after", "2", "-speculate", "-variants", "fuxi,default"}); err != nil {
		t.Fatal(err)
	}
	variants, err := o.selectVariants()
	if err != nil {
		t.Fatal(err)
	}
	const want = "00000000000008400000000000001c409a9999999999a93f9a9999999999c93f" +
		"0000000000000c400000000000409f400000000000407f409a9999999999b93f" +
		"0000000000000440000000000000224000000000000014400000000000000040" +
		"01004675786964656661756c742044656c61795374616765"
	if got := hex.EncodeToString(o.configKey(variants)); got != want {
		t.Errorf("config key changed:\n got %s\nwant %s", got, want)
	}
}

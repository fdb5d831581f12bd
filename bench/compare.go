package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json compare reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// compareMetric is one metric's direction and regression bound (0 for
// per-layer metrics, which have none).
type compareMetric struct {
	name, unit, better string
	bound              float64
	endToEnd           bool
}

// compareMain implements `bench compare OLD NEW`: OLD and NEW are
// results.jsonl files written by --out from alternating runs of the
// parent and the change. The i-th OLD record of a workload pairs with
// the i-th NEW record of the same workload and trace setting.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	minPairs := fs.Int("min-pairs", 10, "fewest pairs per workload a verdict needs")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-min-pairs N] OLD.jsonl NEW.jsonl")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	ms, err := loadMetrics(filepath.Join(root, "BENCHMARK.json"))
	if err == nil {
		var old, cur []record
		if old, err = loadRecords(fs.Arg(0)); err == nil {
			if cur, err = loadRecords(fs.Arg(1)); err == nil {
				err = compare(os.Stdout, ms, old, cur, *minPairs)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	return 0
}

func loadMetrics(path string) ([]compareMetric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var ms []compareMetric
	for _, m := range s.EndToEnd {
		ms = append(ms, compareMetric{m.Name, m.Unit, m.Better, m.Bound, true})
	}
	for _, m := range s.PerLayer {
		ms = append(ms, compareMetric{m.Name, m.Unit, m.Better, 0, false})
	}
	return ms, nil
}

func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// verdict classifies one metric over paired runs, per the rules the
// README states: a gain needs ≥ 90% pair wins and a median shift larger
// than the parent's own quartile spread; a spread wider than the bound
// is unresolved unless every change run beats every parent run.
func verdict(m compareMetric, old, cur []float64) string {
	// A value that repeats exactly, pair by pair or over every run, is a
	// count the program made or a simulated result: compare it exactly.
	samePairs, constant := true, true
	for i := range old {
		samePairs = samePairs && old[i] == cur[i]
		constant = constant && old[i] == old[0] && cur[i] == cur[0]
	}
	if samePairs {
		return "same (exact count)"
	}
	if constant {
		return "changed (exact count)"
	}
	better := func(a, b float64) bool { // a better than b
		if m.better == "higher" {
			return a > b
		}
		return a < b
	}
	wins := 0
	for i := range old {
		if better(cur[i], old[i]) {
			wins++
		}
	}
	mo, mc := median(old), median(cur)
	q1, q3 := quartiles(old)
	if float64(wins) >= 0.9*float64(len(old)) && math.Abs(mc-mo) > q3-q1 && better(mc, mo) {
		return "improved"
	}
	if !m.endToEnd {
		return "-"
	}
	allBetter := true
	for _, c := range cur {
		for _, o := range old {
			if !better(c, o) {
				allBetter = false
			}
		}
	}
	spread := (q3 - q1) / math.Abs(mo)
	cq1, cq3 := quartiles(cur)
	if cs := (cq3 - cq1) / math.Abs(mc); cs > spread {
		spread = cs
	}
	if spread > m.bound && !allBetter {
		return "unresolved"
	}
	worse := (mc - mo) / math.Abs(mo)
	if m.better == "higher" {
		worse = -worse
	}
	if worse > m.bound {
		return "regressed"
	}
	return "no-worse"
}

// compare prints one table per workload and trace setting.
func compare(w io.Writer, ms []compareMetric, old, cur []record, minPairs int) error {
	type key struct {
		workload string
		trace    bool
	}
	group := func(rs []record) map[key][]record {
		g := map[key][]record{}
		for _, r := range rs {
			k := key{r.Workload, r.Trace}
			g[k] = append(g[k], r)
		}
		return g
	}
	og, cg := group(old), group(cur)
	var keys []key
	for k := range og {
		if _, ok := cg[k]; ok {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return fmt.Errorf("no workload appears in both files")
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].trace
	})
	for _, k := range keys {
		o, c := og[k], cg[k]
		n := min(len(o), len(c))
		fmt.Fprintf(w, "\n%s trace=%v: %d pairs", k.workload, k.trace, n)
		if n < minPairs {
			fmt.Fprintf(w, " (fewer than %d: no verdicts)", minPairs)
		}
		fmt.Fprintln(w)
		failed := func(rs []record) (f, a int) {
			for _, r := range rs[:n] {
				f, a = f+r.Failed, a+r.Attempted
			}
			return
		}
		of, oa := failed(o)
		cf, ca := failed(c)
		fmt.Fprintf(w, "  failed ops: parent %d/%d, change %d/%d\n", of, oa, cf, ca)
		fmt.Fprintf(w, "  %-30s %-6s %-36s %-36s %8s %6s  %s\n", "metric", "unit",
			"parent median [q1, q3]", "change median [q1, q3]", "change", "wins", "verdict")
		for _, m := range ms {
			var ov, cv []float64
			for i := 0; i < n; i++ {
				a, okA := o[i].Metrics[m.name]
				b, okB := c[i].Metrics[m.name]
				if okA && okB {
					ov, cv = append(ov, a.Value), append(cv, b.Value)
				}
			}
			if len(ov) == 0 {
				continue
			}
			oq1, oq3 := quartiles(ov)
			cq1, cq3 := quartiles(cv)
			mo, mc := median(ov), median(cv)
			wins := 0
			for i := range ov {
				if (m.better == "higher" && cv[i] > ov[i]) || (m.better == "lower" && cv[i] < ov[i]) {
					wins++
				}
			}
			v := verdict(m, ov, cv)
			if len(ov) < minPairs && v != "same (exact count)" && v != "changed (exact count)" {
				v = "too few pairs"
			}
			fmt.Fprintf(w, "  %-30s %-6s %-36s %-36s %+7.1f%% %3d/%-3d %s\n", m.name, m.unit,
				fmt.Sprintf("%.6g [%.6g, %.6g]", mo, oq1, oq3), fmt.Sprintf("%.6g [%.6g, %.6g]", mc, cq1, cq3),
				100*(mc-mo)/math.Abs(mo), wins, len(ov), v)
		}
	}
	return nil
}

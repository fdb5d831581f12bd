// Package golden checks test output against golden files. Only tests may
// import it: it registers the repository's one -update flag, under which
// every golden a test run checks is rewritten.
//
// A golden passes only when the output equals the file byte for byte. On
// a mismatch, and whenever -update rewrites a file whose bytes changed,
// Check reports how the two differ: the largest ulp distance and relative
// change over the float tokens, every other token that differs, and the
// line counts. So a change that must move a golden can show that it moved
// only the last bits of floats and no decision.
package golden

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files the tests check")

// token matches a number (sign, digits and '.', exponent, and any word
// characters that follow, as in a hex bit pattern), a run of letters,
// digits, '_' and '.', or any other single character.
var token = regexp.MustCompile(`[-+]?[0-9.]+(?:[eE][-+]?[0-9]+)?[A-Za-z0-9_.]*|[A-Za-z0-9_.]+|(?s).`)

// maxListed caps the non-float differences a report lists; maxShown caps
// the bytes it prints of each.
const (
	maxListed = 20
	maxShown  = 120
)

// Check requires got to equal the golden file at path byte for byte.
// Under -update it writes got to path instead, creating the file's
// directory if needed, and logs the report if the bytes changed.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	want, readErr := os.ReadFile(path)
	if *update {
		if readErr == nil && bytes.Equal(got, want) {
			return
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("golden: %v", err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("golden: %v", err)
		}
		if readErr == nil {
			t.Logf("golden: rewrote %s\n%s", path, report(want, got))
		}
		return
	}
	if readErr != nil {
		t.Fatalf("golden: %v (run with -update to create it)", readErr)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("golden: output differs from %s (run with -update to accept it)\n%s", path, report(want, got))
	}
}

// report compares want and got line by line and, within a line, token by
// token. A differing pair of float tokens counts toward the ulp and
// relative-change maxima; any other differing token, or a line whose
// tokens do not pair up, is listed with its line number.
func report(want, got []byte) string {
	wl, gl := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	var list strings.Builder
	floats, others, ulpLine := 0, 0, 0
	var maxULP uint64
	var maxRel float64
	other := func(line int, w, g string) {
		if others++; others <= maxListed {
			fmt.Fprintf(&list, "  line %d: golden %q, got %q\n", line, clip(w), clip(g))
		}
	}
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] == gl[i] {
			continue
		}
		wt, gt := token.FindAllString(wl[i], -1), token.FindAllString(gl[i], -1)
		if len(wt) != len(gt) {
			other(i+1, wl[i], gl[i])
			continue
		}
		for j := range wt {
			if wt[j] == gt[j] {
				continue
			}
			a, b, ok := floatPair(wt[j], gt[j])
			if !ok {
				other(i+1, wt[j], gt[j])
				continue
			}
			floats++
			if u := ulps(a, b); u > maxULP {
				maxULP, ulpLine = u, i+1
			}
			if m := math.Max(math.Abs(a), math.Abs(b)); m > 0 {
				maxRel = math.Max(maxRel, math.Abs(a-b)/m)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "floats: %d differ, max %d ulp, max relative change %.3g", floats, maxULP, maxRel)
	if floats > 0 {
		fmt.Fprintf(&b, " (largest ulp at line %d)", ulpLine)
	}
	fmt.Fprintf(&b, "\nnon-float differences: %d\n%s", others, list.String())
	if others > maxListed {
		fmt.Fprintf(&b, "  ... and %d more\n", others-maxListed)
	}
	if len(wl) != len(gl) {
		fmt.Fprintf(&b, "lines: golden %d, got %d\n", strings.Count(string(want), "\n"), strings.Count(string(got), "\n"))
	}
	return b.String()
}

// floatPair reads two tokens as floats: both 16-hex-digit IEEE-754 bit
// patterns, or both decimals of which either has a '.', 'e' or 'E'.
// Decimals that are integers on both sides are counters, not floats.
func floatPair(w, g string) (a, b float64, ok bool) {
	if x, xok := hexBits(w); xok {
		if y, yok := hexBits(g); yok {
			return math.Float64frombits(x), math.Float64frombits(y), true
		}
	}
	if !strings.ContainsAny(w+g, ".eE") {
		return 0, 0, false
	}
	a, errA := strconv.ParseFloat(w, 64)
	b, errB := strconv.ParseFloat(g, 64)
	return a, b, errA == nil && errB == nil && !math.IsNaN(a) && !math.IsNaN(b)
}

// hexBits reads a 16-hex-digit token as the bits of a float64.
func hexBits(s string) (uint64, bool) {
	u, err := strconv.ParseUint(s, 16, 64)
	return u, len(s) == 16 && err == nil
}

// ulps counts the steps between a and b on the float64 number line.
func ulps(a, b float64) uint64 {
	x, y := ordered(a), ordered(b)
	if x > y {
		x, y = y, x
	}
	return uint64(y) - uint64(x)
}

// ordered maps a float's bits onto the integers so that neighbouring
// floats map to neighbouring integers, and -0 and +0 both to 0.
func ordered(f float64) int64 {
	u := math.Float64bits(f)
	if u>>63 != 0 {
		return -int64(u &^ (1 << 63))
	}
	return int64(u)
}

// clip truncates s to maxShown bytes.
func clip(s string) string {
	if len(s) > maxShown {
		return s[:maxShown] + "..."
	}
	return s
}

package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// fakeTB records what Check reports. Its Fatalf ends the calling
// goroutine, as testing.T's does.
type fakeTB struct {
	testing.TB
	failed bool
	out    strings.Builder
}

func (f *fakeTB) Helper()                        {}
func (f *fakeTB) Logf(format string, a ...any)   { fmt.Fprintf(&f.out, format+"\n", a...) }
func (f *fakeTB) Errorf(format string, a ...any) { f.failed = true; f.Logf(format, a...) }
func (f *fakeTB) Fatalf(format string, a ...any) { f.Errorf(format, a...); runtime.Goexit() }

// check runs Check on its own goroutine and returns what it reported.
func check(path, got string) *fakeTB {
	f := &fakeTB{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		Check(f, path, []byte(got))
	}()
	<-done
	return f
}

// sample holds a line of hex bits and counters and a JSONL line of
// shortest-form decimals.
const sample = "a/00 mk=4059000000000000 3:406e000000000000 pruned=3 fallback=\"\"\n" +
	`{"t":240,"x":0.1,"y":-1.5e-07,"kind":"stage_done"}` + "\n"

func TestCheck(t *testing.T) {
	oneULP := []string{"floats: 1 differ, max 1 ulp", "non-float differences: 0\n"}
	for _, tc := range []struct {
		name, got string
		want      []string // substrings of the report; nil means Check passes
	}{
		{"identical", sample, nil},
		{"hex bits", strings.Replace(sample, "4059000000000000", "4059000000000001", 1), oneULP},
		{"integral decimal", strings.Replace(sample, "240", "240.00000000000003", 1), oneULP},
		{"decimal", strings.Replace(sample, "0.1", "0.09999999999999999", 1), oneULP},
		{"exponent", strings.Replace(sample, "-1.5e-07", "-1.5000000000000002e-07", 1), oneULP},
		{"counter", strings.Replace(sample, "pruned=3", "pruned=4", 1),
			[]string{"floats: 0 differ", "non-float differences: 1\n", `line 1: golden "3", got "4"`}},
		{"extra line", sample + "x\n", []string{`line 3: golden "", got "x"`, "lines: golden 2, got 3"}},
	} {
		path := filepath.Join(t.TempDir(), "x.golden")
		if err := os.WriteFile(path, []byte(sample), 0o644); err != nil {
			t.Fatal(err)
		}
		f := check(path, tc.got)
		if f.failed != (tc.want != nil) {
			t.Errorf("%s: failed = %v, want %v\n%s", tc.name, f.failed, tc.want != nil, f.out.String())
		}
		for _, w := range tc.want {
			if !strings.Contains(f.out.String(), w) {
				t.Errorf("%s: report lacks %q:\n%s", tc.name, w, f.out.String())
			}
		}
	}
}

func TestCheckMissingFile(t *testing.T) {
	f := check(filepath.Join(t.TempDir(), "none.golden"), sample)
	if !f.failed || !strings.Contains(f.out.String(), "-update") {
		t.Errorf("missing golden: failed = %v, message %q does not name -update", f.failed, f.out.String())
	}
}

func TestCheckUpdate(t *testing.T) {
	*update = true
	defer func() { *update = false }()
	path := filepath.Join(t.TempDir(), "testdata", "x.golden")
	moved := strings.Replace(sample, "240", "240.00000000000003", 1)
	for _, got := range []string{sample, moved} {
		if f := check(path, got); f.failed {
			t.Fatalf("-update failed: %s", f.out.String())
		} else if got == moved && !strings.Contains(f.out.String(), "max 1 ulp") {
			t.Errorf("-update rewrote a changed file without its report: %q", f.out.String())
		}
		if b, err := os.ReadFile(path); err != nil || string(b) != got {
			t.Fatalf("-update wrote %q, %v; want %q", b, err, got)
		}
	}
}

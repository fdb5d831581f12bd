package main

import (
	"flag"
	"reflect"
	"testing"
)

// TestFlagSurface pins experiments's flag names and defaults: a flag group shared
// with other commands must not add, drop or re-default any of them.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"json": "", "linger": "0s", "nodes": "30", "only": "", "parallelism": "1", "reps": "5",
		"scale": "1", "seed": "1", "serve": "", "trace-jobs": "600",
	}
	got := map[string]string{}
	flags().fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flag surface changed:\n got %v\nwant %v", got, want)
	}
}

package main

import (
	"flag"
	"reflect"
	"testing"
)

// TestFlagSurface pins analyze's flag names and defaults: a flag group shared
// with other commands must not add, drop or re-default any of them.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"alpha": "0", "chrometrace": "", "events": "", "nodes": "30", "run": "-1", "scale": "1",
		"spec": "", "trace": "", "workload": "TriangleCount",
	}
	got := map[string]string{}
	flags().fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flag surface changed:\n got %v\nwant %v", got, want)
	}
}

package main

import (
	"flag"
	"reflect"
	"testing"
)

// TestFlagSurface pins delaystage's flag names and defaults: a flag group shared
// with other commands must not add, drop or re-default any of them.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"approx-plan": "false", "dot": "", "eventlog": "",
		"nodes": "30", "order": "descending", "profile": "false", "scale": "1",
		"seed": "1", "spec": "", "workload": "LDA",
	}
	got := map[string]string{}
	flags().fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flag surface changed:\n got %v\nwant %v", got, want)
	}
}

package main

import (
	"flag"
	"reflect"
	"testing"
)

// TestFlagSurface pins schedd's flag names and defaults: a flag group shared
// with other commands must not add, drop or re-default any of them.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"addr": ":8080", "approx-plan": "false", "arrival-rate": "0.01", "burst": "5", "cache-size": "0",
		"events": "", "fair": "true", "log-level": "info", "max-candidates": "16",
		"nodes": "10", "once": "false", "poisson": "0", "policy": "accept-all", "queue-cap": "8",
		"rate": "1", "replay": "", "revise-depth": "0", "seed": "1", "slot": "1", "timescale": "1",
	}
	got := map[string]string{}
	flags().fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flag surface changed:\n got %v\nwant %v", got, want)
	}
}

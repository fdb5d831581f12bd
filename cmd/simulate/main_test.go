package main

import (
	"flag"
	"reflect"
	"testing"
)

// TestFlagSurface pins simulate's flag names and defaults: a flag group shared
// with other commands must not add, drop or re-default any of them.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"approx-plan": "false", "blacklist-after": "0", "chrometrace": "", "crash-at": "0",
		"crash-node": "-1", "crash-rack": "-1", "crash-rack-at": "0", "events": "", "fault-rate": "0",
		"fault-seed": "1", "guarded": "false", "json": "", "linger": "0s", "max-retries": "0",
		"mttf-horizon": "0", "node-mttf": "0", "nodes": "30", "rack-size": "0",
		"report": "false", "scale": "1", "serve": "", "slow-node-factor": "1", "slow-node-frac": "0",
		"spec": "", "spec-threshold": "0", "speculate": "false", "straggler-factor": "1",
		"straggler-frac": "0", "strategy": "delaystage", "workload": "TriangleCount",
	}
	got := map[string]string{}
	flags().fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flag surface changed:\n got %v\nwant %v", got, want)
	}
}

package sim

import (
	"math"
	"strings"
	"testing"

	"delaystage/internal/dag"
	"delaystage/internal/workload"
)

// TestMaskedRunValidation: a masked run (JobRun.Active) is refused with a
// mask of the wrong length and together with AggShuffle, at construction
// and at Inject, while a masked placed run needs links only between its
// active stages, as its sub-job does; and its inactive stages are unknown
// to Fork and ReadyTime. (internal/core's TestMaskedRunMatchesRestrictedJob
// checks the semantics against the restricted sub-job.)
func TestMaskedRunValidation(t *testing.T) {
	c := ref(2)
	job := workload.LDA(c, 0.2)
	n := job.Graph.Len()
	mask := make([]bool, n)
	mask[0] = true
	// The first stage on node 0 and the rest on node 1, with no link
	// between them: every cross-node edge touches an inactive stage.
	split := map[dag.StageID]int{}
	for p, id := range job.Graph.StagesView() {
		split[id] = min(p, 1)
	}
	cases := []struct {
		name    string
		opt     Options
		run     JobRun
		wantErr string // "" = accepted
	}{
		{"short mask", Options{Cluster: c}, JobRun{Job: job, Active: make([]bool, n-1)}, "active mask of"},
		{"long mask", Options{Cluster: c}, JobRun{Job: job, Active: make([]bool, n+1)}, "active mask of"},
		{"placed", Options{Cluster: c}, JobRun{Job: job, Active: mask, Placement: split}, ""},
		{"AggShuffle", Options{Cluster: c, AggShuffle: true}, JobRun{Job: job, Active: mask}, "AggShuffle is not supported"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.opt.TrackNode = -1
			check := func(what string, err error) {
				t.Helper()
				if tc.wantErr == "" && err != nil {
					t.Fatalf("%s = %v, want it accepted", what, err)
				}
				if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
					t.Fatalf("%s = %v, want an error containing %q", what, err, tc.wantErr)
				}
			}
			_, err := Run(tc.opt, []JobRun{tc.run})
			check("Run", err)
			s, err := NewStepper(tc.opt, []JobRun{{Job: job}})
			if err != nil {
				t.Fatal(err)
			}
			tc.run.Arrival = 10
			check("Inject", s.Inject(tc.run))
		})
	}
	// Unmasked, the same placement reads over a missing link.
	if _, err := Run(Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: job, Placement: split}}); err == nil || !strings.Contains(err.Error(), "no link connects") {
		t.Fatalf("unmasked split placement = %v, want a missing-link error", err)
	}

	s, err := NewStepper(Options{Cluster: c, TrackNode: -1}, []JobRun{{Job: job, Active: mask}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceBefore(1); err != nil {
		t.Fatal(err)
	}
	off := job.Graph.StagesView()[1]
	if _, err := s.Fork([]DelayUpdate{{Job: 0, Stage: off, Delay: 1}}); err == nil || !strings.Contains(err.Error(), "has no stage") {
		t.Fatalf("Fork revising an inactive stage = %v, want an unknown-stage error", err)
	}
	if _, ok := s.ReadyTime(0, 1); ok {
		t.Fatal("an inactive stage reports a ready time")
	}
}

// TestStepperClose: a closed stepper reports a finished run and refuses
// every further use, while a fork taken before the close drains exactly
// as an unclosed parent's fork does.
func TestStepperClose(t *testing.T) {
	opt := Options{Cluster: ref(3), TrackNode: -1}
	runs := []JobRun{{Job: workload.LDA(ref(3), 0.2)}}
	want, err := Run(opt, runs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStepper(opt, runs)
	if err != nil {
		t.Fatal(err)
	}
	fk, err := s.Fork(nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // a second close does nothing
	if s.HasPendingEvents() {
		t.Fatal("a closed stepper still has pending events")
	}
	if err := s.StepNextEvent(); err == nil {
		t.Fatal("StepNextEvent on a closed stepper succeeded")
	}
	if _, err := s.Fork(nil); err == nil {
		t.Fatal("Fork of a closed stepper succeeded")
	}
	if _, err := s.Result(); err == nil {
		t.Fatal("Result of a closed stepper succeeded")
	}
	if _, _, err := s.DrainJCTSum(math.Inf(1)); err == nil {
		t.Fatal("DrainJCTSum of a closed stepper succeeded")
	}
	got, err := stepOut(fk)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "fork of a closed parent", want, got)
}

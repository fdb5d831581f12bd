package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/workload"
)

// arrivalMode picks how an injected job's arrival relates to the world it
// joins: the edge cases of the AdvanceBefore/Inject boundary.
type arrivalMode int

const (
	arriveAfterGap       arrivalMode = iota // a random gap after the previous arrival
	arriveTied                              // the previous job's arrival exactly
	arriveAtEvent                           // an instant the clock lands on (ready/start/phase end/job end)
	arriveJustAfterEvent                    // within eps after such an instant: the arrival is already due there
	arriveAtDelayTimer                      // a delayed stage's pending submission time
	arriveAfterIdle                         // after every earlier job has finished
	numArrivalModes
)

// injectRuns draws a world of jobs whose arrivals hit the given modes in
// turn (job 0 arrives at 0). Event-anchored arrivals come from a run of
// the prefix world, whose trajectory the injected job must not perturb
// before it arrives.
func injectRuns(t testing.TB, opt Options, jobs []*workload.Job, rng *rand.Rand, modes []arrivalMode) []JobRun {
	t.Helper()
	runs := []JobRun{{Job: jobs[0], Delays: randomDelays(jobs[0], rng)}}
	for k, mode := range modes {
		prev := runs[len(runs)-1].Arrival
		arrival := prev + float64(rng.Float64()*40)
		if mode != arriveAfterGap && mode != arriveTied {
			res, err := Run(opt, runs)
			if err != nil {
				t.Fatal(err)
			}
			var cands []float64
			switch mode {
			case arriveAtEvent, arriveJustAfterEvent:
				for _, tl := range res.Timelines {
					cands = append(cands, tl.Ready, tl.Start, tl.ReadEnd, tl.ComputeEnd, tl.End)
				}
				cands = append(cands, res.JobEnd...)
				if mode == arriveJustAfterEvent {
					for i := range cands {
						cands[i] += float64(rng.Float64() * eps)
					}
				}
			case arriveAtDelayTimer:
				for _, tl := range res.Timelines {
					if d := runs[tl.JobIndex].Delays[tl.Stage]; d > 0 {
						cands = append(cands, tl.Ready+d) // markReady's expression
					}
				}
			case arriveAfterIdle:
				end := 0.0
				for _, e := range res.JobEnd {
					end = math.Max(end, e)
				}
				cands = append(cands, end+1+float64(rng.Float64()*20))
			}
			var ok []float64
			for _, c := range cands {
				if c >= prev {
					ok = append(ok, c)
				}
			}
			if len(ok) > 0 {
				sort.Float64s(ok)
				arrival = ok[rng.Intn(len(ok))]
			}
		} else if mode == arriveTied {
			arrival = prev
		}
		job := jobs[(k+1)%len(jobs)]
		runs = append(runs, JobRun{Job: job, Arrival: arrival, Delays: randomDelays(job, rng)})
	}
	return runs
}

// checkInjected builds the world live — job 0 in NewStepper, then
// AdvanceBefore(a_k) + Inject(r_k) per later job, then AdvanceBefore
// through a few later stage milestones — and requires the finished
// Result, and the observed event stream, to equal those of Run over all
// runs bit for bit. Every boundary's Timeline reads are held to the
// Result by checkTimelineReads. At each injection boundary it also forks
// the world and injects job 0 into the fork, before or after the
// parent's injection (checkForkInject).
func checkInjected(t *testing.T, ctx string, opt Options, runs []JobRun) {
	t.Helper()
	var want, live recorder
	opt.Observer = &want
	ref, err := Run(opt, runs)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	opt.Observer = &live
	s, err := NewStepper(opt, runs[:1])
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	var reads []timelineRead
	for k, r := range runs[1:] {
		if err := s.AdvanceBefore(r.Arrival); err != nil {
			t.Fatalf("%s: advance before job %d: %v", ctx, k+1, err)
		}
		if !s.HasPendingEvents() {
			t.Fatalf("%s: AdvanceBefore(%v) finished the stepper", ctx, r.Arrival)
		}
		if c := s.Clock(); c > r.Arrival {
			t.Fatalf("%s: clock %v past the arrival %v", ctx, c, r.Arrival)
		}
		reads = readTimelines(reads, s, runs, live.events, r.Arrival)
		twin := JobRun{Job: runs[0].Job, Arrival: r.Arrival, Delays: runs[0].Delays}
		checkForkInject(t, ctx, opt, runs[:k+1], s, twin, k%2 == 0, func() {
			if err := s.Inject(r); err != nil {
				t.Fatalf("%s: inject job %d: %v", ctx, k+1, err)
			}
		})
	}
	for _, at := range laterBoundaries(ref, runs[len(runs)-1].Arrival) {
		if err := s.AdvanceBefore(at); err != nil {
			t.Fatalf("%s: advance before %v: %v", ctx, at, err)
		}
		reads = readTimelines(reads, s, runs, live.events, at)
	}
	got := stepToCompletion(t, s)
	if !reflect.DeepEqual(ref, got) {
		t.Errorf("%s: injected world differs from a fresh one (events %d vs %d, makespan %v vs %v)",
			ctx, got.Events, ref.Events, got.Makespan, ref.Makespan)
	}
	if !reflect.DeepEqual(want.events, live.events) {
		t.Errorf("%s: injected world's event stream differs from a fresh one's", ctx)
	}
	checkTimelineReads(t, ctx, runs, reads, got)
}

// checkForkInject forks s, a world of runs paused at an injection
// boundary, and injects twin into the fork — first, or after
// injectParent injected the parent's own next run — then drains the
// fork and requires its Result to be that of a fresh Run over runs plus
// twin, bit for bit. The fork shares the parent's stage table until
// either of them grows it, so an injection into one that wrote into the
// other's would show here or in the parent's check.
func checkForkInject(t *testing.T, ctx string, opt Options, runs []JobRun, s *Stepper, twin JobRun, forkFirst bool, injectParent func()) {
	t.Helper()
	opt.Observer = nil // a fork has none
	ref, err := Run(opt, append(slices.Clone(runs), twin))
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	fk, err := s.Fork(nil)
	if err != nil {
		t.Fatalf("%s: fork: %v", ctx, err)
	}
	if !forkFirst {
		injectParent()
	}
	if err := fk.Inject(twin); err != nil {
		t.Fatalf("%s: inject into the fork: %v", ctx, err)
	}
	if forkFirst {
		injectParent()
	}
	if got := stepToCompletion(t, fk); !reflect.DeepEqual(ref, got) {
		t.Errorf("%s: fork with job %d injected differs from a fresh world (events %d vs %d)",
			ctx, len(runs), got.Events, ref.Events)
	}
}

// TestForkInjectKeepsWorldsApart: a world and its fork share their stage
// info, so each injection must land in its own world only. A world of one
// job, and one grown by an injection first (its stage table then has
// room to spare), is forked at a later boundary; the parent and the fork
// each get a different job, in either order, and each must finish as a
// fresh world of its own runs does, bit for bit.
func TestForkInjectKeepsWorldsApart(t *testing.T) {
	c := cluster.NewM4LargeCluster(4)
	jobs := galleryJobs(c, 0.2)
	opt := Options{Cluster: c, TrackNode: -1}
	for _, grown := range []bool{false, true} {
		for _, forkFirst := range []bool{false, true} {
			runs := []JobRun{{Job: jobs[0]}}
			s, err := NewStepper(opt, runs)
			if err != nil {
				t.Fatal(err)
			}
			if grown {
				runs = append(runs, JobRun{Job: jobs[1], Arrival: 20})
				if err := s.AdvanceBefore(20); err != nil {
					t.Fatal(err)
				}
				if err := s.Inject(runs[1]); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.AdvanceBefore(45); err != nil {
				t.Fatal(err)
			}
			mine := JobRun{Job: jobs[2], Arrival: 45}
			ctx := fmt.Sprintf("grown=%v forkFirst=%v", grown, forkFirst)
			checkForkInject(t, ctx, opt, runs, s, JobRun{Job: jobs[3], Arrival: 45}, forkFirst, func() {
				if err := s.Inject(mine); err != nil {
					t.Fatal(err)
				}
			})
			ref, err := Run(opt, append(slices.Clone(runs), mine))
			if err != nil {
				t.Fatal(err)
			}
			if got := stepToCompletion(t, s); !reflect.DeepEqual(ref, got) {
				t.Errorf("%s: parent with its own job injected differs from a fresh world (events %d vs %d)",
					ctx, got.Events, ref.Events)
			}
		}
	}
}

// laterBoundaries picks up to eight AdvanceBefore boundaries from the
// stage milestones of res at or after from, in ascending order: every
// other one is a milestone itself, the rest lie within eps after one.
func laterBoundaries(res *Result, from float64) []float64 {
	var ms []float64
	for _, tl := range res.Timelines {
		for _, m := range milestones(tl) {
			if m >= from {
				ms = append(ms, m)
			}
		}
	}
	sort.Float64s(ms)
	var out []float64
	for i := 0; i < 8 && len(ms) > 0; i++ {
		at := ms[i*len(ms)/8]
		if i%2 == 1 {
			at += eps / 2
		}
		if len(out) == 0 || at > out[len(out)-1] {
			out = append(out, at)
		}
	}
	return out
}

// timelineRead is one Stepper.Timeline answer, read at the AdvanceBefore
// boundary at, and the number of EvTaskRetry events the stage's
// partitions had drawn by then.
type timelineRead struct {
	at       float64
	job, pos int
	tl       StageTimeline
	ok       bool
	retried  int
}

// readTimelines appends the Timeline answer for every stage of every job
// the stepper holds, given the events it has emitted so far.
func readTimelines(reads []timelineRead, s *Stepper, runs []JobRun, events []Event, at float64) []timelineRead {
	type key struct {
		job   int
		stage dag.StageID
	}
	retried := map[key]int{}
	for _, ev := range events {
		if ev.Kind == EvTaskRetry {
			retried[key{ev.Job, ev.Stage}]++
		}
	}
	for j := 0; j < s.Jobs(); j++ {
		for p, id := range runs[j].Job.Graph.StagesView() {
			tl, ok := s.Timeline(j, p)
			reads = append(reads, timelineRead{at: at, job: j, pos: p, tl: tl, ok: ok, retried: retried[key{j, id}]})
		}
	}
	return reads
}

// milestones lists a timeline's milestone times in lifecycle order.
func milestones(tl StageTimeline) [5]float64 {
	return [5]float64{tl.Ready, tl.Start, tl.ReadEnd, tl.ComputeEnd, tl.End}
}

// checkTimelineReads is Timeline's property: at every boundary, each
// milestone a read reports equals, bit for bit, the same field of the
// stage's timeline in the drained res.Timelines (for a stage that never
// completed, its last read), and each milestone it does not report
// (+Inf) lies at or after the boundary, to the engine's eps: an
// AggShuffle prefetch pass due within eps before a boundary runs after
// it, as an arrival there would fire first. Retries is the live count of
// failed attempts: one EvTaskRetry each, except the attempt that fails
// the job.
func checkTimelineReads(t *testing.T, ctx string, runs []JobRun, reads []timelineRead, res *Result) {
	t.Helper()
	type key struct{ job, pos int }
	final := map[key]StageTimeline{}
	for _, r := range reads {
		if r.ok {
			final[key{r.job, r.pos}] = r.tl
		}
	}
	for _, tl := range res.Timelines {
		final[key{tl.JobIndex, runs[tl.JobIndex].Job.Graph.Pos(tl.Stage)}] = tl
	}
	for _, r := range reads {
		fin, seen := final[key{r.job, r.pos}]
		if !r.ok {
			if seen && (fin.Ready < r.at-eps || fin.Start < r.at-eps) {
				t.Fatalf("%s: job %d pos %d reports nothing at %v but was ready at %v, submitted at %v",
					ctx, r.job, r.pos, r.at, fin.Ready, fin.Start)
			}
			continue
		}
		if id := runs[r.job].Job.Graph.StagesView()[r.pos]; r.tl.JobIndex != r.job || r.tl.Stage != id {
			t.Fatalf("%s: job %d pos %d reads as job %d stage %d", ctx, r.job, r.pos, r.tl.JobIndex, r.tl.Stage)
		}
		got, want := milestones(r.tl), milestones(fin)
		for m := range got {
			reported := !math.IsInf(got[m], 1)
			if reported && math.Float64bits(got[m]) != math.Float64bits(want[m]) {
				t.Fatalf("%s: job %d stage %d milestone %d reads %v at %v, the drained world has %v",
					ctx, r.job, r.tl.Stage, m, got[m], r.at, want[m])
			}
			if !reported && want[m] < r.at-eps {
				t.Fatalf("%s: job %d stage %d milestone %d unreported at %v, reached at %v",
					ctx, r.job, r.tl.Stage, m, r.at, want[m])
			}
		}
		if r.tl.Retries < r.retried || r.tl.Retries > r.retried+1 {
			t.Fatalf("%s: job %d stage %d reads %d retries at %v after %d EvTaskRetry events",
				ctx, r.job, r.tl.Stage, r.tl.Retries, r.at, r.retried)
		}
	}
}

// injectVariants are the option sets the injection property must hold
// under: plain sharing, job-first fairness, pipelined shuffle, full
// tracking (occupancy and series), the chaos regime, and the coarse
// FairByJob world the scheduling service runs.
func injectVariants(t *testing.T, c *cluster.Cluster) []struct {
	name string
	opt  Options
} {
	inj := chaosInjector(t)
	return []struct {
		name string
		opt  Options
	}{
		{"plain", Options{Cluster: c, TrackNode: -1}},
		{"fair", Options{Cluster: c, TrackNode: -1, FairByJob: true}},
		{"aggshuffle", Options{Cluster: c, TrackNode: -1, AggShuffle: true}},
		{"tracked", Options{Cluster: c, TrackNode: 0, TrackOccupancy: true, TrackCluster: true}},
		{"chaos", chaosOptions(c, inj)},
		{"coarse-fair", Options{Cluster: Coarsen(c), TrackNode: -1, FairByJob: true}},
	}
}

// TestInjectMatchesFreshWorld is the injection property: a world grown by
// AdvanceBefore + Inject is bit-identical — JobEnd, Timelines, Events,
// Occupancy, usage series — to one NewStepper over every run, across
// random gallery subsets and every arrival edge case.
func TestInjectMatchesFreshWorld(t *testing.T) {
	c := cluster.NewM4LargeCluster(6)
	gallery := galleryJobs(c, 0.25)
	for _, v := range injectVariants(t, c) {
		rng := rand.New(rand.NewSource(41))
		for trial := 0; trial < 6; trial++ {
			jobs := append([]*workload.Job(nil), gallery...)
			rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
			var modes []arrivalMode
			for k := 0; k < int(numArrivalModes); k++ {
				modes = append(modes, arrivalMode((trial+k)%int(numArrivalModes)))
			}
			runs := injectRuns(t, v.opt, jobs, rng, modes)
			checkInjected(t, v.name, v.opt, runs)
		}
	}
}

// FuzzStepperInject fuzzes the injection property over job choice, delay
// vectors, arrival modes and option variants.
func FuzzStepperInject(f *testing.F) {
	f.Add(int64(1), uint8(0), uint32(0x01234))
	f.Add(int64(2), uint8(1), uint32(0x11111))
	f.Add(int64(3), uint8(2), uint32(0x32323))
	f.Add(int64(4), uint8(4), uint32(0x44321))
	f.Add(int64(5), uint8(5), uint32(0x20202))
	// Three injections into a pipelined-shuffle world, forked and
	// injected at each boundary (checkForkInject).
	f.Add(int64(6), uint8(2), uint32(0x00e6e))
	c := cluster.NewM4LargeCluster(4)
	gallery := galleryJobs(c, 0.2)
	f.Fuzz(func(t *testing.T, seed int64, variant uint8, modeBits uint32) {
		vs := injectVariants(t, c)
		v := vs[int(variant)%len(vs)]
		rng := rand.New(rand.NewSource(seed))
		jobs := append([]*workload.Job(nil), gallery...)
		rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
		var modes []arrivalMode
		for n := 1 + modeBits%4; n > 0; n-- {
			modeBits /= 4
			modes = append(modes, arrivalMode(int(modeBits%8)%int(numArrivalModes)))
		}
		checkInjected(t, v.name, v.opt, injectRuns(t, v.opt, jobs, rng, modes))
	})
}

// nopWatchdog is a Watchdog that never trips.
type nopWatchdog struct{}

func (nopWatchdog) Trip(WatchEvent) bool { return false }

// TestInjectValidation: every way an injection could silently diverge is
// an error instead, and a rejected injection leaves the world untouched.
func TestInjectValidation(t *testing.T) {
	c := cluster.NewM4LargeCluster(2)
	job := galleryJobs(c, 0.2)[0]
	opt := Options{Cluster: c, TrackNode: -1}
	fresh := func(t *testing.T, o Options) *Stepper {
		t.Helper()
		s, err := NewStepper(o, []JobRun{{Job: job}})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ok := JobRun{Job: job, Arrival: 100}
	cases := []struct {
		name    string
		prep    func(*testing.T) *Stepper
		run     JobRun
		wantErr string
	}{
		{"finished stepper", func(t *testing.T) *Stepper {
			s := fresh(t, opt)
			for s.HasPendingEvents() {
				if err := s.StepNextEvent(); err != nil {
					t.Fatal(err)
				}
			}
			return s
		}, ok, "finished"},
		{"arrival behind the horizon", func(t *testing.T) *Stepper {
			s := fresh(t, opt)
			if err := s.AdvanceBefore(150); err != nil {
				t.Fatal(err)
			}
			return s
		}, ok, "behind the stepped horizon"},
		{"stepped outside AdvanceBefore", func(t *testing.T) *Stepper {
			s := fresh(t, opt)
			if err := s.StepNextEvent(); err != nil {
				t.Fatal(err)
			}
			return s
		}, ok, "behind the stepped horizon"},
		{"peeked outside AdvanceBefore", func(t *testing.T) *Stepper {
			s := fresh(t, opt)
			s.PeekNextEventTime()
			return s
		}, ok, "behind the stepped horizon"},
		{"nil job", func(t *testing.T) *Stepper { return fresh(t, opt) },
			JobRun{Arrival: 100}, "is nil"},
		{"NaN delay", func(t *testing.T) *Stepper { return fresh(t, opt) },
			JobRun{Job: job, Arrival: 100, Delays: map[dag.StageID]float64{job.Graph.Stages()[0]: math.NaN()}},
			"invalid delay"},
		{"NaN arrival", func(t *testing.T) *Stepper { return fresh(t, opt) },
			JobRun{Job: job, Arrival: math.NaN()}, "invalid arrival"},
		{"watchdog", func(t *testing.T) *Stepper {
			return fresh(t, Options{Cluster: c, TrackNode: -1, Watchdog: nopWatchdog{}})
		}, ok, "Watchdog"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.prep(t)
			jobs := len(s.e.runs)
			err := s.Inject(tc.run)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Inject = %v, want an error containing %q", err, tc.wantErr)
			}
			if len(s.e.runs) != jobs || s.e.jobsLeft > jobs {
				t.Fatalf("rejected injection changed the world: %d runs, %d left", len(s.e.runs), s.e.jobsLeft)
			}
		})
	}
	if err := fresh(t, opt).AdvanceBefore(math.NaN()); err == nil {
		t.Fatal("AdvanceBefore(NaN) accepted")
	}
}

// TestInjectKeepsCallerRuns: the run list handed to NewStepper is never
// written through, even when it has spare capacity an append could use.
func TestInjectKeepsCallerRuns(t *testing.T) {
	c := cluster.NewM4LargeCluster(2)
	jobs := galleryJobs(c, 0.2)
	backing := []JobRun{{Job: jobs[0]}, {Job: jobs[1], Arrival: 7}}
	s, err := NewStepper(Options{Cluster: c, TrackNode: -1}, backing[:1])
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Inject(JobRun{Job: jobs[2], Arrival: 3}); err != nil {
		t.Fatal(err)
	}
	if backing[1].Job != jobs[1] || backing[1].Arrival != 7 {
		t.Fatalf("Inject wrote into the caller's run list: %+v", backing[1])
	}
}

// TestAdvanceBeforeIdles: advancing past the end of every job leaves the
// stepper open (HasPendingEvents stays true) at the last job's end, and a
// run injected there joins a world that simply sat idle — as in a fresh
// world whose second job arrives after the first finished.
func TestAdvanceBeforeIdles(t *testing.T) {
	c := cluster.NewM4LargeCluster(4)
	jobs := galleryJobs(c, 0.2)
	opt := Options{Cluster: c, TrackNode: 0, TrackCluster: true}
	first := JobRun{Job: jobs[0]}
	solo, err := Run(opt, []JobRun{first})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStepper(opt, []JobRun{first})
	if err != nil {
		t.Fatal(err)
	}
	late := solo.JobEnd[0] + 500
	if err := s.AdvanceBefore(late); err != nil {
		t.Fatal(err)
	}
	if !s.HasPendingEvents() || s.Clock() != solo.JobEnd[0] || s.Events() != solo.Events {
		t.Fatalf("idle stepper: pending=%v clock=%v events=%d, want open at %v after %d events",
			s.HasPendingEvents(), s.Clock(), s.Events(), solo.JobEnd[0], solo.Events)
	}
	second := JobRun{Job: jobs[1], Arrival: late}
	if err := s.Inject(second); err != nil {
		t.Fatal(err)
	}
	ref, err := Run(opt, []JobRun{first, second})
	if err != nil {
		t.Fatal(err)
	}
	if got := stepToCompletion(t, s); !reflect.DeepEqual(ref, got) {
		t.Fatal("injection into an idle world differs from a fresh one")
	}
}

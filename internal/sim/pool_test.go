package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/workload"
)

// poolTask is one self-contained simulation. Its Result must not depend
// on which engines the pool handed out before it, nor on what runs beside
// it. Tasks return errors instead of failing the test: they also run on
// worker goroutines.
type poolTask struct {
	name string
	run  func() (*Result, error)
}

// stepOut drives a stepper to its end and takes the Result, checking
// that the clock and event count survive the engine's retirement.
func stepOut(s *Stepper) (*Result, error) {
	for s.HasPendingEvents() {
		if err := s.StepNextEvent(); err != nil {
			return nil, err
		}
	}
	clock, events := s.Clock(), s.Events()
	res, err := s.Result()
	if err != nil {
		return nil, err
	}
	if s.Clock() != clock || s.Events() != events || res.Events != events {
		return nil, fmt.Errorf("stepper clock/events changed when its result was taken")
	}
	return res, nil
}

// answerOnlyDrains is a what-if evaluation's use of the pool: an
// answer-only world over runs, advanced to just before at, forked with
// and without the update and itself drained, each with DrainJCTSum. The
// answers come back as a Result's JobEnd (a fork's Σ JCT, then the
// world's) and Events (their event counts, summed), so the hygiene checks
// compare them like any other result.
func answerOnlyDrains(opt Options, runs []JobRun, at float64, upd []DelayUpdate) (*Result, error) {
	s, err := NewStepper(opt, runs)
	if err != nil {
		return nil, err
	}
	s.AnswerOnly()
	if err := s.AdvanceBefore(at); err != nil {
		return nil, err
	}
	res := &Result{}
	for _, u := range [][]DelayUpdate{upd, nil} {
		f, err := s.Fork(u)
		if err != nil {
			return nil, err
		}
		sum, _, err := f.DrainJCTSum(math.Inf(1))
		if err != nil {
			return nil, err
		}
		res.JobEnd, res.Events = append(res.JobEnd, sum), res.Events+f.Events()
	}
	sum, _, err := s.DrainJCTSum(math.Inf(1))
	if err != nil {
		return nil, err
	}
	res.JobEnd, res.Events = append(res.JobEnd, sum), res.Events+s.Events()
	return res, nil
}

// poolTasks is the mixed sequence of the pool hygiene test: every option
// family that leaves different state in an engine (fault, speculation and
// blacklist bookkeeping, prefetch weights, fairness scratch, tracked
// series and occupancy segments), one- and multi-job worlds, coarse and
// 30-node clusters, forks of paused steppers, steppers grown by Inject,
// and answer-only what-if drains between the full runs.
func poolTasks(t *testing.T) []poolTask {
	c6 := cluster.NewM4LargeCluster(6)
	c30 := cluster.NewM4LargeCluster(30)
	coarse := Coarsen(c30)
	inj := chaosInjector(t)
	rng := rand.New(rand.NewSource(61))
	gallery := galleryJobs(c6, 0.25)
	big := galleryJobs(c30, 0.3)
	job := func(i int) *workload.Job { return gallery[i%len(gallery)] }

	var tasks []poolTask
	add := func(name string, opt Options, runs []JobRun) {
		tasks = append(tasks, poolTask{name, func() (*Result, error) { return Run(opt, runs) }})
	}
	for i := 0; i < 3; i++ {
		one := []JobRun{{Job: job(i), Delays: randomDelays(job(i), rng)}}
		multi := []JobRun{
			{Job: job(i), Delays: randomDelays(job(i), rng)},
			{Job: job(i + 1), Arrival: 15 + float64(10*float64(i)), Delays: randomDelays(job(i+1), rng)},
			{Job: job(i + 2), Arrival: 40, Delays: randomDelays(job(i+2), rng)},
		}
		// An answer-only world's drains, after each full run of the same
		// world: a stale answerOnly flag would drop the next full run's
		// usage, a stale fault or speculation field of an item would
		// change a drained answer.
		answer := func(name string, opt Options) {
			last := multi[2].Job
			upd := []DelayUpdate{{Job: 2, Stage: last.Graph.StagesView()[last.Graph.Len()-1], Delay: 5}}
			tasks = append(tasks, poolTask{name, func() (*Result, error) { return answerOnlyDrains(opt, multi, 30, upd) }})
		}
		add(fmt.Sprintf("plain-%d", i), Options{Cluster: c6, TrackNode: -1}, one)
		add(fmt.Sprintf("chaos-%d", i), chaosOptions(c6, inj), multi)
		answer(fmt.Sprintf("answer-chaos-%d", i), chaosOptions(c6, inj))
		add(fmt.Sprintf("aggshuffle-%d", i), Options{Cluster: c6, TrackNode: -1, AggShuffle: true}, multi)
		answer(fmt.Sprintf("answer-aggshuffle-%d", i), Options{Cluster: c6, TrackNode: -1, AggShuffle: true})
		add(fmt.Sprintf("fair-%d", i), Options{Cluster: c6, TrackNode: -1, FairByJob: true}, multi)
		answer(fmt.Sprintf("answer-fair-%d", i), Options{Cluster: c6, TrackNode: 1, TrackCluster: true, FairByJob: true})
		add(fmt.Sprintf("tracked-%d", i), Options{Cluster: c6, TrackNode: 1, TrackCluster: true, TrackOccupancy: true}, one)
		add(fmt.Sprintf("coarse-%d", i), Options{Cluster: coarse, TrackNode: -1, FairByJob: true}, multi)
		add(fmt.Sprintf("n30-%d", i), Options{Cluster: c30, TrackNode: -1},
			[]JobRun{{Job: big[i], Delays: randomDelays(big[i], rng)}})

		// A paused stepper and forks of it — revised and unrevised — all
		// built inside the task so they too draw from the pool.
		opt := chaosOptions(c6, inj)
		if i == 1 {
			opt = Options{Cluster: c6, TrackNode: 0, TrackOccupancy: true}
		}
		fork := []JobRun{{Job: job(i + 3), Delays: randomDelays(job(i+3), rng)}}
		upd := []DelayUpdate{{Job: 0, Stage: job(i + 3).Graph.StagesView()[job(i+3).Graph.Len()-1], Delay: 7}}
		forkTask := func(upd []DelayUpdate) func() (*Result, error) {
			return func() (*Result, error) {
				s, err := NewStepper(opt, fork)
				if err != nil {
					return nil, err
				}
				if err := s.AdvanceBefore(25); err != nil {
					return nil, err
				}
				f, err := s.Fork(upd)
				if err != nil {
					return nil, err
				}
				return stepOut(f)
			}
		}
		tasks = append(tasks,
			poolTask{fmt.Sprintf("fork-%d", i), forkTask(upd)},
			poolTask{fmt.Sprintf("forkstepper-%d", i), forkTask(nil)})

		// A stepper grown by Inject, one job at a time.
		iopt := []Options{{Cluster: c6, TrackNode: -1, FairByJob: true}, chaosOptions(c6, inj),
			{Cluster: c6, TrackNode: -1, AggShuffle: true}}[i]
		tasks = append(tasks, poolTask{fmt.Sprintf("inject-%d", i), func() (*Result, error) {
			s, err := NewStepper(iopt, multi[:1])
			if err != nil {
				return nil, err
			}
			for _, r := range multi[1:] {
				if err := s.AdvanceBefore(r.Arrival); err != nil {
					return nil, err
				}
				if err := s.Inject(r); err != nil {
					return nil, err
				}
			}
			return stepOut(s)
		}})
	}
	return tasks
}

// TestEnginePoolHygiene: recycled engines must not carry state between
// runs, and a returned Result must never alias pooled buffers. The mixed
// sequence runs once in order — each Result deep-copied the moment it is
// returned and compared again after every later run — once more task by
// task from an emptied pool, and once shuffled across 4 goroutines
// sharing the pool; every Result must be identical.
func TestEnginePoolHygiene(t *testing.T) {
	tasks := poolTasks(t)
	seq := make([]*Result, len(tasks))
	copies := make([]*Result, len(tasks))
	for i, task := range tasks {
		res, err := task.run()
		if err != nil {
			t.Fatalf("%s: %v", task.name, err)
		}
		cp := res.clone()
		seq[i], copies[i] = res, &cp
	}
	for i := range tasks {
		if !reflect.DeepEqual(seq[i], copies[i]) {
			t.Errorf("%s: result changed after later runs (aliases an engine buffer)", tasks[i].name)
		}
	}
	for i, task := range tasks {
		drainEnginePool()
		res, err := task.run()
		if err != nil {
			t.Fatalf("%s (fresh pool): %v", task.name, err)
		}
		if !reflect.DeepEqual(seq[i], res) {
			t.Errorf("%s: run from an emptied pool differs from the in-order run (events %d vs %d)",
				task.name, res.Events, seq[i].Events)
		}
	}

	order := rand.New(rand.NewSource(62)).Perm(len(tasks))
	par := make([]*Result, len(tasks))
	errs := make([]error, len(tasks))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(order) {
					return
				}
				i := order[k]
				par[i], errs[i] = tasks[i].run()
			}
		}()
	}
	wg.Wait()
	for i, task := range tasks {
		if errs[i] != nil {
			t.Errorf("%s (concurrent): %v", task.name, errs[i])
			continue
		}
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Errorf("%s: shuffled concurrent run differs from the in-order run (events %d vs %d, makespan %v vs %v)",
				task.name, par[i].Events, seq[i].Events, par[i].Makespan, seq[i].Makespan)
		}
	}
}

// TestNewItemResetsPooledItem: newItem hands out a pooled item whose
// every field is either one it was given or zero, whatever the item held
// when it was freed. Every field of the freed item is set to a non-zero
// value by reflection, so a field added to item that newItem forgets to
// reset fails here.
func TestNewItemResetsPooledItem(t *testing.T) {
	e := newEngine(Options{Cluster: cluster.NewM4LargeCluster(2), TrackNode: -1}, nil)
	defer e.release()
	stale := e.popItem()
	v := reflect.ValueOf(stale).Elem()
	for i := range v.NumField() {
		f := v.Field(i)
		f = reflect.NewAt(f.Type(), f.Addr().UnsafePointer()).Elem() // unexported
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int:
			f.SetInt(7)
		case reflect.Uint8:
			f.SetUint(2)
		case reflect.Float64:
			f.SetFloat(3.5)
		case reflect.Pointer:
			f.Set(reflect.ValueOf(&item{}))
		case reflect.Struct:
			f.Set(reflect.ValueOf(skey{job: 9, stage: 9}))
		default:
			t.Fatalf("item field %s has kind %v the test cannot set", v.Type().Field(i).Name, f.Kind())
		}
	}
	e.freeItem(stale)
	st := &stageInfo{key: skey{job: 1, stage: 4}, idx: 6}
	it := e.newItem(st, 2, 3, phWrite, 40)
	if it != stale {
		t.Fatal("newItem did not reuse the freed item")
	}
	want := item{key: st.key, st: 6, home: 2, node: 3, ph: phWrite, remaining: 40, volume: 40}
	if *it != want {
		t.Errorf("newItem over a stale pooled item = %+v, want %+v", *it, want)
	}
}

// clone deep-copies a result (every slice gets fresh backing).
func (r *Result) clone() Result {
	c := *r
	c.Timelines = slices.Clone(r.Timelines)
	c.JobEnd = append([]float64(nil), r.JobEnd...)
	c.JobStart = append([]float64(nil), r.JobStart...)
	c.JobErrors = append([]error(nil), r.JobErrors...)
	c.Node = r.Node.clone()
	c.Cluster = r.Cluster.clone()
	c.Occupancy = append([]OccupancySegment(nil), r.Occupancy...)
	return c
}

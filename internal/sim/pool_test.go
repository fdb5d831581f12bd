package sim

import (
	"fmt"
	"math/rand"
	"reflect"
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

// poolTasks is the mixed sequence of the pool hygiene test: every option
// family that leaves different state in an engine (fault, speculation and
// blacklist bookkeeping, prefetch weights, fairness scratch, tracked
// series and occupancy segments), one- and multi-job worlds, coarse and
// 30-node clusters, snapshot forks (Resume and Stepper), and steppers
// grown by Inject.
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
			{Job: job(i + 1), Arrival: 15 + 10*float64(i), Delays: randomDelays(job(i+1), rng)},
			{Job: job(i + 2), Arrival: 40, Delays: randomDelays(job(i+2), rng)},
		}
		add(fmt.Sprintf("plain-%d", i), Options{Cluster: c6, TrackNode: -1}, one)
		add(fmt.Sprintf("chaos-%d", i), chaosOptions(c6, inj), multi)
		add(fmt.Sprintf("aggshuffle-%d", i), Options{Cluster: c6, TrackNode: -1, AggShuffle: true}, multi)
		add(fmt.Sprintf("fair-%d", i), Options{Cluster: c6, TrackNode: -1, FairByJob: true}, multi)
		add(fmt.Sprintf("tracked-%d", i), Options{Cluster: c6, TrackNode: 1, TrackCluster: true, TrackOccupancy: true}, one)
		add(fmt.Sprintf("coarse-%d", i), Options{Cluster: coarse, TrackNode: -1, FairByJob: true}, multi)
		add(fmt.Sprintf("n30-%d", i), Options{Cluster: c30, TrackNode: -1},
			[]JobRun{{Job: big[i], Delays: randomDelays(big[i], rng)}})

		// A snapshot forked by Resume and by Stepper, built inside the
		// task so it too draws from the pool.
		opt := chaosOptions(c6, inj)
		if i == 1 {
			opt = Options{Cluster: c6, TrackNode: 0, TrackOccupancy: true}
		}
		fork := []JobRun{{Job: job(i + 3), Delays: randomDelays(job(i+3), rng)}}
		upd := []DelayUpdate{{Job: 0, Stage: job(i + 3).Graph.StagesView()[job(i+3).Graph.Len()-1], Delay: 7}}
		tasks = append(tasks,
			poolTask{fmt.Sprintf("resume-%d", i), func() (*Result, error) {
				snap, err := SnapshotAt(opt, fork, 25)
				if err != nil {
					return nil, err
				}
				return snap.Resume(upd)
			}},
			poolTask{fmt.Sprintf("snapstepper-%d", i), func() (*Result, error) {
				snap, err := SnapshotAt(opt, fork, 25)
				if err != nil {
					return nil, err
				}
				return stepOut(snap.Stepper())
			}})

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
// returned and compared again after every later run — and once shuffled
// across 4 goroutines sharing the pool; every Result must be identical.
func TestEnginePoolHygiene(t *testing.T) {
	tasks := poolTasks(t)
	seq := make([]*Result, len(tasks))
	copies := make([]*Result, len(tasks))
	for i, task := range tasks {
		res, err := task.run()
		if err != nil {
			t.Fatalf("%s: %v", task.name, err)
		}
		seq[i], copies[i] = res, res.clone()
	}
	for i := range tasks {
		if !reflect.DeepEqual(seq[i], copies[i]) {
			t.Errorf("%s: result changed after later runs (aliases an engine buffer)", tasks[i].name)
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

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"delaystage/internal/cluster"
	"delaystage/internal/jobspec"
	"delaystage/internal/service"
	"delaystage/internal/workload"
)

// The eight recurring job shapes: the gallery, the paper's four workloads
// and ALS, at 2% of paper scale on cmd/schedd's default 10-node cluster.
const (
	scheddNodes = 10
	shapeScale  = 0.02
	// meanSoloJCT is the mean simulated solo JCT of the eight shapes, in
	// seconds; offered load ρ = arrival rate × meanSoloJCT. It is a fixed
	// constant so the inputs never depend on the program under test.
	meanSoloJCT = 19.7
	// warmupGap separates the warm-up arrivals far enough that each is
	// planned alone, which is what stores it in the template cache.
	warmupGap = 1000.0
	// drainMargin follows the last arrival with the sentinel job: far
	// enough that every earlier job has finished when it arrives.
	drainMargin = 20000.0
	// maxSimTime is the engine's default 30-day horizon (sim.Options
	// MaxTime). The service's clock is absolute across busy periods, so a
	// daemon fails every submission once arrivals pass it.
	maxSimTime = 30 * 24 * 3600.0
	// readRate is the plan readers' open-loop rate, per wall second.
	readRate = 100.0
	// sessionGap separates busy sessions: long enough for the world to
	// drain, so each session is its own busy-period epoch.
	sessionGap = 1000.0
)

// scheddWorkload shapes one schedd traffic mix.
type scheddWorkload struct {
	rho float64 // offered simulated load
	// postRate is submissions per wall second: the open-loop send rate, or
	// for a closed loop the rate a round is sized by (the submit rate on a
	// 2-vCPU Xeon, between its slow and fast spells).
	postRate float64
	openLoop bool
	// session, when set, groups arrivals into sessions of this many jobs
	// separated by sessionGap: busy periods then end with each session
	// instead of growing with the seed's luck, and the data plane's
	// per-admission prefix replay (quadratic in the busy period) costs the
	// same on every seed.
	session int
	// window is the submissions per measurement window, the unit of work
	// the calibration kernel runs between; a round's submissions are a
	// whole number of windows. About a tenth of a second of traffic.
	window int
}

// windowGap is the pause an open loop makes after each window, in which
// the calibration kernel and the wake probes run (about 30 ms on the
// development host): no request is due in it.
const windowGap = 40 * time.Millisecond

var (
	// scheddLight: independent tenants (open loop). Busy periods average
	// about 1.3 jobs and nearly every plan is a template-cache hit, so
	// HTTP, jobspec decoding and the cache path dominate.
	scheddLight = scheddWorkload{rho: 0.3, postRate: 400, openLoop: true, window: 80}
	// scheddBusy: a pipeline that submits and waits (closed loop) at high
	// load. Busy periods run to several jobs, so the per-admission
	// data-plane rebuild (a replay of the epoch's prefix) dominates, and
	// plan reads queue behind the service mutex.
	scheddBusy = scheddWorkload{rho: 0.9, postRate: 1300, session: 64, window: 128}
)

// roundPosts is the submissions of one round of a run sized to seconds:
// as many whole windows, each followed by its gap, as fit the round's
// share of the run.
func roundPosts(w scheddWorkload, seconds float64) int {
	windowLen := float64(w.window)/w.postRate + windowGap.Seconds()
	return max(1, int(math.Round(seconds/fullRounds/windowLen))) * w.window
}

// scheddInputs is everything a schedd round sends, generated from the
// seed; every round sends the same.
type scheddInputs struct {
	w        scheddWorkload
	warmups  [][]byte // one POST body per shape
	posts    [][]byte // workload POST bodies in send order
	arrivals []float64
	sentinel []byte
	readU    []float64 // uniform draws picking each read's target job
	// readEvery is how many posts the in-process replay sends per read,
	// the two streams' nominal rate ratio.
	readEvery float64
}

// shapes returns the eight job shapes sorted by name, as jobspec JSON.
func shapes() (names []string, specs [][]byte, err error) {
	c := cluster.NewM4LargeCluster(scheddNodes)
	all := workload.Gallery(c, shapeScale)
	for k, j := range workload.PaperWorkloads(c, shapeScale) {
		all[k] = j
	}
	all["ALS"] = workload.ALS(c, shapeScale)
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b, err := json.Marshal(jobspec.FromJob(all[n]))
		if err != nil {
			return nil, nil, err
		}
		specs = append(specs, b)
	}
	return names, specs, nil
}

// submitBody renders one POST /v1/jobs body; the arrival is written with
// every digit so the daemon and the reference see the same float.
func submitBody(spec []byte, arrival float64) []byte {
	b := []byte(`{"tenant":"bench","arrival":`)
	b = strconv.AppendFloat(b, arrival, 'g', -1, 64)
	b = append(b, `,"job":`...)
	b = append(b, spec...)
	return append(b, '}')
}

// genScheddInputs generates n submissions and their reads. Composition is
// fixed and only the instances vary with the seed, which keeps run-to-run
// spread low: shapes come in blocks of eight, each a random permutation
// drawn from the seed. The exponential inter-arrival gaps of each session
// (or of the whole sequence) are rescaled to sum to exactly n/λ, so every
// input offers exactly load ρ, and they come from one fixed draw: the
// data plane's work grows with the square of the busy-period length, and
// gaps drawn from the seed moved it by 17% from seed to seed.
func genScheddInputs(w scheddWorkload, seed int64, n int) (*scheddInputs, error) {
	_, specs, err := shapes()
	if err != nil {
		return nil, err
	}
	if n < 1 {
		n = 1
	}
	reads := int(math.Round(float64(n) * readRate / w.postRate))
	rng := rand.New(rand.NewSource(seed))
	gapRNG := rand.New(rand.NewSource(1))
	in := &scheddInputs{w: w, readEvery: w.postRate / readRate}
	for i, s := range specs {
		in.warmups = append(in.warmups, submitBody(s, float64(i)*warmupGap))
	}
	order := make([]int, 0, n)
	for len(order) < n {
		order = append(order, rng.Perm(len(specs))...)
	}
	session := w.session
	if session == 0 {
		session = n
	}
	lambda := w.rho / meanSoloJCT
	at := float64(len(specs)) * warmupGap
	for first := 0; first < n; first += session {
		if first > 0 {
			at += sessionGap
		}
		gaps := make([]float64, min(session, n-first))
		sum := 0.0
		for i := range gaps {
			gaps[i] = gapRNG.ExpFloat64()
			sum += gaps[i]
		}
		scale := float64(len(gaps)) / lambda / sum
		for i, g := range gaps {
			at += g * scale
			in.arrivals = append(in.arrivals, at)
			in.posts = append(in.posts, submitBody(specs[order[first+i]], at))
		}
	}
	sentinel := at + drainMargin
	if sentinel+drainMargin > maxSimTime {
		return nil, fmt.Errorf("simulated horizon %.0fs (last arrival %.0fs + drain) exceeds the engine's %.0fs MaxTime: "+
			"the service clock is absolute across busy periods, so shorten the run", sentinel+drainMargin, at, maxSimTime)
	}
	in.sentinel = submitBody(specs[0], sentinel)
	for k := 0; k < max(reads, 1); k++ {
		in.readU = append(in.readU, rng.Float64())
	}
	return in, nil
}

// jobID is the id the service assigns to the i-th submission it sees.
func jobID(i int) string { return "j-" + strconv.Itoa(i) }

// readTarget picks a read's job among the acked submissions.
func readTarget(u float64, acked int) string { return jobID(int(u * float64(acked))) }

// daemon is a running cmd/schedd.
type daemon struct {
	*child
	addr string
}

var servingRE = regexp.MustCompile(`serving on http://([0-9.:]+)`)

// startDaemon starts schedd with its default options, waits for /healthz
// and warms the template cache with one job per shape. It returns the
// set-up time: exec to the last warm-up answered.
func startDaemon(rc *runCtx, in *scheddInputs, k int) (*daemon, time.Duration, error) {
	logPath := filepath.Join(rc.work, fmt.Sprintf("schedd-%d.log", k))
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	c, err := startChild(rc.bins.schedd, []string{"-addr", "127.0.0.1:0"}, nil, logf)
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{child: c}
	fail := func(err error) (*daemon, time.Duration, error) {
		c.kill()
		return nil, 0, err
	}
	deadline := time.Now().Add(30 * time.Second)
	for d.addr == "" {
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("schedd did not report its address"))
		}
		b, _ := os.ReadFile(logPath) // not yet written is retried
		if m := servingRE.FindSubmatch(b); m != nil {
			d.addr = string(m[1])
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	cn, err := dial(d.addr)
	if err != nil {
		return fail(err)
	}
	defer cn.close()
	if code, _, err := cn.do("GET", "/healthz", nil); err != nil || code != 200 {
		return fail(fmt.Errorf("healthz: %d %v", code, err))
	}
	for i, body := range in.warmups {
		code, resp, err := cn.do("POST", "/v1/jobs", body)
		if err != nil || code != 200 {
			return fail(fmt.Errorf("warm-up %d: %d %v %s", i, code, err, resp))
		}
	}
	return d, time.Since(c.start), nil
}

// submitReply is the part of a POST /v1/jobs response the checks read.
type submitReply struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// planReply is the part of a GET /v1/plan/{id} response the checks read.
type planReply struct {
	ID     string `json:"id"`
	Source string `json:"source"`
}

// drive sends one round's traffic to addr from two goroutines on two
// connections: submissions on one, plan reads on the other. Submissions
// run open loop (timed from their due instant) or closed loop; reads are
// always open loop and, in a closed-loop run, stop with the submissions.
// cpu reads the daemon's CPU time; drive reads it before the first
// submission and after the last of each window, and then runs the
// calibration kernel into cal. An open loop pauses windowGap after each
// window for it; a closed loop sends the next submission when it is done.
func drive(addr string, in *scheddInputs, cpu func() (time.Duration, error), cal *calibration) (*driveResult, error) {
	pc, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer pc.close()
	rcn, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer rcn.close()
	res := &driveResult{window: in.w.window}
	// The kernel must have the measuring CPU to itself. A closed loop
	// holds the plan reads while it runs and waits up to 10 ms for the
	// daemon to go idle; an open loop has no read due in its gaps and
	// waits at most 2 ms, so that the kernel and the wake probes end within
	// the gap.
	idleMax := 2 * time.Millisecond
	quiet := func(f func() error) error { return f() }
	var hold *gate
	if !in.w.openLoop {
		idleMax, hold = 10*time.Millisecond, newGate()
		quiet = func(f func() error) error {
			hold.close()
			defer hold.open()
			return f()
		}
	}
	// The 200 responses are kept and checked after the round, so that their
	// decoding is not timed.
	var acked atomic.Int64
	base := len(in.warmups)
	postReplies := make([][]byte, len(in.posts))
	var readIDs []string
	var readReplies [][]byte
	posts := stream{n: len(in.posts),
		send: func(i int) (int, error) {
			code, b, err := pc.do("POST", "/v1/jobs", in.posts[i])
			if err == nil && code == 200 {
				postReplies[i] = b
				acked.Add(1)
			}
			return code, err
		},
		after: func(i int) error {
			if (i+1)%in.w.window != 0 {
				return nil
			}
			t, err := cpu()
			if err != nil {
				return err
			}
			res.cpu = append(res.cpu, t)
			return quiet(func() error {
				if err := waitIdle(cpu, idleMax); err != nil {
					return err
				}
				t0, err := cpu()
				if err != nil {
					return err
				}
				cal.measure()
				t1, err := cpu()
				res.kernelCPU += t1 - t0
				return err
			})
		},
	}
	// withGaps turns a time on the gapless schedule into one that pauses
	// windowGap after every window of an open loop.
	windowLen := float64(in.w.window) / in.w.postRate
	withGaps := func(t float64) time.Duration {
		if in.w.openLoop {
			t += math.Floor(t/windowLen) * windowGap.Seconds()
		}
		return time.Duration(t * float64(time.Second))
	}
	if in.w.openLoop {
		// The window comes from i, not from withGaps: a window's first
		// submission is due exactly on a boundary, which rounding may
		// place in the window before.
		posts.at = func(i int) time.Duration {
			return time.Duration(float64(i)/in.w.postRate*float64(time.Second)) + time.Duration(i/in.w.window)*windowGap
		}
	}
	nReads := len(in.readU)
	if !in.w.openLoop {
		nReads = math.MaxInt32 // until the submissions finish
	}
	stop := make(chan struct{})
	// Reads fall midway between two submissions' due times.
	reads := stream{n: nReads, stop: stop, hold: hold,
		at: func(k int) time.Duration {
			return withGaps((float64(k)+0.5)/readRate + 0.5/in.w.postRate)
		},
		send: func(k int) (int, error) {
			id := readTarget(in.readU[k%len(in.readU)], base+int(acked.Load()))
			code, b, err := rcn.do("GET", "/v1/plan/"+id, nil)
			if err == nil && code == 200 {
				readIDs, readReplies = append(readIDs, id), append(readReplies, b)
			}
			return code, err
		}}
	if err := waitIdle(cpu, 10*time.Millisecond); err != nil {
		return nil, err
	}
	cal.measure()
	t0, err := cpu()
	if err != nil {
		return nil, err
	}
	res.cpu = append(res.cpu, t0)
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	var readErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		res.reads, readErr = reads.run(start)
	}()
	res.posts, err = posts.run(start)
	close(stop)
	wg.Wait()
	if err == nil {
		err = readErr
	}
	if err != nil {
		return nil, err
	}
	for i, b := range postReplies {
		var r submitReply
		if b != nil && (json.Unmarshal(b, &r) != nil || r.ID != jobID(base+i) || r.State == string(service.StateRejected)) {
			res.bad++
		}
	}
	for k, b := range readReplies {
		var r planReply
		if json.Unmarshal(b, &r) != nil || r.ID != readIDs[k] || r.Source == "" {
			res.bad++
		}
	}
	return res, nil
}

// driveResult is one round's measured phase.
type driveResult struct {
	posts  []sample
	reads  []sample
	window int
	// cpu holds the daemon's CPU time before the first submission and after
	// the last submission of each window.
	cpu []time.Duration
	bad int // 200 responses whose body failed its check
	// kernelCPU is the daemon's CPU time while the calibration kernel ran.
	kernelCPU time.Duration
}

// waitIdle returns once the daemon has used under 20 µs of CPU in a
// quarter of a millisecond, or after max.
func waitIdle(cpu func() (time.Duration, error), max time.Duration) error {
	last, err := cpu()
	for end := time.Now().Add(max); err == nil && time.Now().Before(end); {
		time.Sleep(250 * time.Microsecond)
		var t time.Duration
		if t, err = cpu(); err == nil && t-last < 20*time.Microsecond {
			return nil
		}
		last = t
	}
	return err
}

// windows splits the round into its measurement windows. Window k holds
// submissions [k·window, (k+1)·window) and every request due from the
// first of them until the next window's first (the last window ends with
// its last response). It returns each window's median request latency
// and the daemon's CPU time per submission, both in ms.
func (dr *driveResult) windows() (latency, cpu []float64) {
	n := len(dr.posts) / dr.window
	bounds := make([]time.Time, n+1)
	for k := 0; k < n; k++ {
		bounds[k] = dr.posts[k*dr.window].due
	}
	bounds[n] = dr.posts[len(dr.posts)-1].done
	lat := make([][]float64, n)
	for _, s := range append(append([]sample(nil), dr.posts...), dr.reads...) {
		k := sort.Search(n, func(k int) bool { return bounds[k+1].After(s.due) })
		if k < n && !s.due.Before(bounds[k]) {
			lat[k] = append(lat[k], s.latency().Seconds()*1e3)
		}
	}
	for k := 0; k < n; k++ {
		latency = append(latency, median(lat[k]))
		cpu = append(cpu, (dr.cpu[k+1]-dr.cpu[k]).Seconds()*1e3/float64(dr.window))
	}
	return latency, cpu
}

// scheddRound is one daemon lifetime: start and warm up, the round's
// traffic, the sentinel, the checks, SIGTERM.
type scheddRound struct {
	setup time.Duration
	dr    *driveResult
	// cal holds the kernel times before the set-up, then before each
	// window and after the last.
	cal calibration
	*drained
	peakRSS float64 // MB, read before SIGTERM
	exit    childExit
	// stolen is the share of the harness CPUs' time the hypervisor took
	// while the round's traffic ran.
	stolen float64
}

func runScheddRound(rc *runCtx, in *scheddInputs, k int) (*scheddRound, error) {
	rd := &scheddRound{}
	rd.cal.wake = in.w.openLoop // its daemon idles between requests
	rd.cal.measure()
	d, setup, err := startDaemon(rc, in, k)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	rd.setup = setup
	steal0, err := stolenTicks()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if rd.dr, err = drive(d.addr, in, d.cpuTime, &rd.cal); err != nil {
		return nil, err
	}
	steal1, err := stolenTicks()
	if err != nil {
		return nil, err
	}
	rd.stolen = float64(steal1-steal0) / 100 / (time.Since(t0).Seconds() * float64(len(harnessCPUs)))
	if rd.drained, err = verifyDaemon(d, in); err != nil {
		return nil, err
	}
	if rd.peakRSS, err = d.peakRSS(); err != nil {
		return nil, err
	}
	if rd.exit, err = d.stop(); err != nil {
		return nil, err
	}
	return rd, nil
}

// An open loop charges a hypervisor stall to every request due during it
// (see stolenTicks). On the development host the runs whose traffic lost
// a quarter of the harness CPUs' time to steal read 5–10 times slower
// than the rest, and whole minutes went by like that. So an open-loop
// round that loses more than stealLimit of that time counts as stolen:
// while the rounds a run would keep include a stolen one, the run makes
// another, until its rounds would end past retakeSeconds × --seconds, and
// it keeps the rounds that lost the least.
const (
	stealLimit    = 0.05
	retakeSeconds = 1.5
)

// leastStolen returns the indices, in order, of the n rounds that lost
// the least time to steal.
func leastStolen(rds []*scheddRound, n int) []int {
	idx := make([]int, len(rds))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return rds[idx[a]].stolen < rds[idx[b]].stolen })
	idx = idx[:n]
	sort.Ints(idx)
	return idx
}

// retake reports whether an open-loop run that has made k rounds, of which
// it keeps n, makes another to replace a stolen one.
func retake(rc *runCtx, w scheddWorkload, rds []*scheddRound, n int, t0 time.Time) bool {
	if !w.openLoop || rc.quick || rc.trace {
		return false
	}
	for _, i := range leastStolen(rds, n) {
		if rds[i].stolen > stealLimit {
			k := len(rds)
			return time.Since(t0).Seconds()*float64(k+1)/float64(k) <= retakeSeconds*rc.seconds
		}
	}
	return false
}

// pick returns the rows of rows at the indices idx.
func pick[T any](rows []T, idx []int) []T {
	out := make([]T, len(idx))
	for i, k := range idx {
		out[i] = rows[k]
	}
	return out
}

// runSchedd is one schedd-light or schedd-busy run: rounds of the same
// traffic, each against a fresh daemon.
func runSchedd(rc *runCtx, w scheddWorkload) (*outcome, error) {
	in, err := genScheddInputs(w, rc.seed, roundPosts(w, rc.seconds))
	if err != nil {
		return nil, err
	}
	oc := &outcome{metrics: map[string]float64{}}
	var rds []*scheddRound
	var rss []float64
	// Per round, per unit, at the host's own speed: each window's latency
	// and CPU time per submission (ms), and the set-up time (s); and the
	// units' calibration factors.
	var lats, cpus, setups, scales, setupScales [][]float64
	var lat, late []float64 // every request's latency (ms); generator lateness (s)
	badExit, notDone := 0, 0
	counters := "as expected"
	t0 := time.Now()
	kept := 0 // rounds the metrics use
	for k := 0; ; k++ {
		if moreRounds(rc, k, t0) {
			kept = k + 1
		} else if !retake(rc, w, rds, kept, t0) {
			break
		}
		rd, err := runScheddRound(rc, in, k)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", k, err)
		}
		f := rd.cal.scales(len(rd.cal.gaps) - 1)
		setupScales, scales = append(setupScales, []float64{rd.cal.kernelScale(0)}), append(scales, f[1:])
		rds = append(rds, rd)
		if rd.exit.code != 0 {
			badExit++
		}
		if rd.counters != "" {
			counters = fmt.Sprintf("round %d: %s", k, rd.counters)
		}
		notDone += rd.notDone
		setups = append(setups, []float64{rd.setup.Seconds()})
		rss = append(rss, rd.peakRSS)
		l, c := rd.dr.windows()
		lats, cpus = append(lats, l), append(cpus, c)
		for _, s := range append(append([]sample(nil), rd.dr.posts...), rd.dr.reads...) {
			lat = append(lat, s.latency().Seconds()*1e3)
			oc.attempted++
			if s.err != nil || s.status != 200 {
				oc.failed++
			}
		}
		oc.failed += rd.dr.bad
		late = append(append(late, lateness(rd.dr.posts)...), lateness(rd.dr.reads)...)
	}
	stolen := make([]float64, len(rds))
	for i, rd := range rds {
		stolen[i] = 100 * rd.stolen
	}
	keep := leastStolen(rds, kept)
	lats, cpus, setups = pick(lats, keep), pick(cpus, keep), pick(setups, keep)
	scales, setupScales = pick(scales, keep), pick(setupScales, keep)
	total := len(in.warmups) + len(in.posts) + 1
	oc.check("cluster-counters", counters == "as expected",
		"after the sentinel, every round: %d submitted and admitted, none rejected or failed, all but the sentinel done: %s",
		total, counters)
	oc.check("all-jobs-done", notDone == 0, "%d jobs of %d rounds not done after the sentinel", notDone, len(rds))
	oc.check("exit-status", badExit == 0, "%d of %d daemons exited non-zero after SIGTERM", badExit, len(rds))
	oc.check("requests", oc.failed == 0, "%d of %d requests failed or answered wrongly", oc.failed, oc.attempted)

	ref, err := scheddReferenceChecks(rc, in, rds, oc)
	if err != nil {
		return nil, err
	}
	var jctSum float64
	for i := range in.posts {
		jctSum += ref.jcts[jobID(len(in.warmups)+i)]
	}
	// Each unit's time is its median over the rounds at the reference
	// speed; the windows are of equal size.
	latency := func(f [][]float64) float64 { return median(unitMedians(rescale(lats, f))) }
	perJob := func(f [][]float64) float64 { return sum(unitMedians(rescale(cpus, f))) / float64(len(cpus[0])) }
	setup := func(f [][]float64) float64 { return median(unitMedians(rescale(setups, f))) }
	m := oc.metrics
	m["latency_ms"] = latency(scales)
	m["cpu_ms_per_job"] = perJob(scales)
	m["peak_rss_mb"] = median(rss)
	m["sim_jct_mean_s"] = jctSum / float64(len(in.posts))
	m["setup_s"] = setup(setupScales)

	windows := len(lats[0])
	tail := tailPercentile(len(lat))
	oc.note("%d rounds of %d submissions and %d reads, %d windows of %d submissions each",
		len(rds), len(in.posts), len(rds[0].dr.reads), windows, w.window)
	oc.note("steal while the traffic ran, by round: %.1f%%; the metrics use rounds %v", stolen, keep)
	oc.note("every request of every round: p50 %.4g ms, p%g %.4g ms over %d samples",
		percentile(lat, 0.5), 100*tail, percentile(lat, tail), len(lat))
	if w.openLoop && len(late) > 0 {
		oc.note("generator lateness p50 %.1f µs p99 %.1f µs over %d idle sends",
			percentile(late, 0.5)*1e6, percentile(late, 0.99)*1e6, len(late))
	}
	oc.note("at the host's own speed: latency %.4g ms, CPU %.4g ms per submission, set-up %.4g s",
		latency(ones(lats)), perJob(ones(cpus)), setup(ones(setups)))
	oc.note("reference speed over the host's, by round: %.3f", perRound(scales, float64(windows)))
	oc.note("daemon CPU per submission by round, at the host's own speed: %.4g ms",
		perRound(cpus, float64(len(cpus[0]))))
	var kernelCPU time.Duration
	for _, rd := range rds {
		kernelCPU += rd.dr.kernelCPU
	}
	oc.note("daemon CPU while the calibration kernel ran: %.3g ms per window",
		kernelCPU.Seconds()*1e3/float64(len(rds)*windows))
	oc.note("busy-period epochs: %d (%.1f jobs each)", rds[0].epochs,
		float64(len(in.posts)+len(in.warmups))/float64(rds[0].epochs))
	return oc, nil
}

// drained is what a round's daemon reported once the sentinel arrived.
type drained struct {
	counters string // the /v1/cluster counters, "" when as expected
	notDone  int    // jobs other than the sentinel not done
	jcts     map[string]float64
	epochs   int
}

// verifyDaemon submits the sentinel, then reads the daemon's counters and
// every job's state and JCT. The sentinel arrives drainMargin after the
// last job, so by then the world has drained: every earlier job is done.
// Only GET /v1/plan was read during the round; the endpoints that call
// Service.Sync are read only now, because a Sync between submissions can
// move the simulated clock past a later arrival and change its JCT.
func verifyDaemon(d *daemon, in *scheddInputs) (*drained, error) {
	fail := func(format string, a ...any) (*drained, error) {
		return nil, fmt.Errorf(format, a...)
	}
	cn, err := dial(d.addr)
	if err != nil {
		return fail("dial: %w", err)
	}
	defer cn.close()
	code, b, err := cn.do("POST", "/v1/jobs", in.sentinel)
	if err != nil || code != 200 {
		return fail("sentinel submit: %d %v %s", code, err, b)
	}
	sentinelID := jobID(len(in.warmups) + len(in.posts))
	code, b, err = cn.do("GET", "/v1/cluster", nil)
	if err != nil || code != 200 {
		return fail("GET /v1/cluster: %d %v", code, err)
	}
	var cs service.ClusterState
	if err := json.Unmarshal(b, &cs); err != nil {
		return fail("decode /v1/cluster: %w", err)
	}
	total := len(in.warmups) + len(in.posts) + 1
	dn := &drained{jcts: map[string]float64{}, epochs: cs.Epoch}
	if !(cs.Submitted == total && cs.Admitted == total && cs.Rejected == 0 &&
		cs.Failed == 0 && cs.Done+cs.Failed == cs.Admitted-1 && cs.Live == 1) {
		dn.counters = fmt.Sprintf("submitted %d admitted %d rejected %d done %d failed %d live %d",
			cs.Submitted, cs.Admitted, cs.Rejected, cs.Done, cs.Failed, cs.Live)
	}
	code, b, err = cn.do("GET", "/v1/jobs", nil)
	if err != nil || code != 200 {
		return fail("GET /v1/jobs: %d %v", code, err)
	}
	var jobs []service.JobStatus
	if err := json.Unmarshal(b, &jobs); err != nil {
		return fail("decode /v1/jobs: %w", err)
	}
	for _, j := range jobs {
		if j.ID == sentinelID {
			continue
		}
		if j.State != service.StateDone {
			dn.notDone++
		}
		dn.jcts[j.ID] = j.JCT
	}
	dn.notDone += total - 1 - len(dn.jcts) // jobs missing from the listing
	return dn, nil
}

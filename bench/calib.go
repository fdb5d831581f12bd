package main

import (
	"container/heap"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// A shared host's speed drifts. On the 2-vCPU KVM guest this benchmark was
// developed on, each vCPU switched on its own between a fast state and one
// up to 2.2 times slower, every second or so and for minutes at a time (see
// README.md). Three things make the measurements follow the program under
// test instead of that drift:
//
//   - Placement. Every program under test runs on one CPU, the measuring
//     CPU, and the harness's own threads run on the others. The load
//     generator then never competes with the program it times.
//   - Holding the CPUs. A spinner keeps each CPU from idling (see
//     holdCPUs).
//   - Calibration. A fixed kernel runs on the measuring CPU between every
//     two units of work (a window of submissions, a replay). Each unit's
//     times are scaled by refKernelMS over the kernel's median time next to
//     it: the unit's time on that CPU at the reference speed. On the pinned
//     2-vCPU guest, replay's time over the kernel's spread 2–5%
//     (IQR/median over 10–20 s stretches) where replay's own times spread
//     34–41%. An open loop adds wake probes to the kernel (see wakeProbe).
//
// The kernel and the probes are part of the benchmark, not of the programs
// under test, so a change to them cannot move either.

// refKernelMS is the kernel's time on the reference host (a 2-vCPU Xeon,
// Sapphire Rapids, KVM guest) when it runs at full speed, and refEventsMS
// that of its event loop alone.
const (
	refKernelMS = 2.2
	refEventsMS = 1.3
)

// refTableMS, refWakeWalkMS and refWakeJSONMS are the times of the
// kernel's table part and of the wake probe's two parts on the reference
// host, in the state in which the whole kernel takes refKernelMS (measured
// side by side over 46 schedd-light runs).
const (
	refTableMS    = 1.13
	refWakeWalkMS = 0.065
	refWakeJSONMS = 0.157
)

// kernelRuns is how many times the kernel runs between two units.
const kernelRuns = 3

// kernel does a fixed amount of the two kinds of work the programs under
// test do, about half its time each: random read-modify-writes over a
// 2 MB table, about a core's L2, with a small allocation every 64 steps;
// and a discrete-event loop over a binary heap of small allocated events
// with a map of per-key state. On the development host replay's times
// moved with the first part's to the power 0.8–0.9 and with the second's
// to the power 1.0–1.2. Over the same 10–20 s stretches, replay's time
// over either part's alone spread 4–8% (IQR/median), and over their
// product's square root 2–5%.
func kernel() kernelTime {
	if kernelTable == nil {
		kernelTable = make([]uint64, 256<<10)
		for i := range kernelTable {
			kernelTable[i] = uint64(i) * 0x9e3779b97f4a7c15
		}
	}
	t := time.Now()
	x, s := uint64(88172645463325252), uint64(0)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < 100_000; i++ {
		j := next() % uint64(len(kernelTable))
		kernelTable[j] += s
		s += kernelTable[j]
		if i%64 == 0 {
			kernelSink = make([]byte, 256)
		}
	}
	mid := time.Now()
	const keys = 1000
	var h kernelEvents
	for i := 0; i < keys; i++ {
		heap.Push(&h, &kernelEvent{at: float64(i % 97), key: i})
	}
	state := make(map[int]float64, keys)
	f := 0.0
	for i := 0; i < 6000; i++ {
		e := heap.Pop(&h).(*kernelEvent)
		d := float64(next()%1000) / 100
		state[e.key] += d / 2
		f += state[(e.key*31)%keys]
		heap.Push(&h, &kernelEvent{at: e.at + d, key: int(next() % keys)})
	}
	kernelSum += s + uint64(f)
	return kernelTime{table: ms(mid.Sub(t)), events: ms(time.Since(mid))}
}

// kernelTime is one kernel run's wall time in ms, by part.
type kernelTime struct{ table, events float64 }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

var kernelTable []uint64

// kernelSink and kernelSum keep the compiler from removing the kernel's
// work.
var (
	kernelSink []byte
	kernelSum  uint64
)

// kernelEvent is one event of the kernel's discrete-event loop.
type kernelEvent struct {
	at  float64
	key int
}

// kernelEvents is a container/heap of events by time.
type kernelEvents []*kernelEvent

func (h kernelEvents) Len() int           { return len(h) }
func (h kernelEvents) Less(i, j int) bool { return h[i].at < h[j].at }
func (h kernelEvents) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *kernelEvents) Push(e any)        { *h = append(*h, e.(*kernelEvent)) }
func (h *kernelEvents) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// An open loop's daemon idles between requests. On the development host
// what a request cost after an idle spell moved with how much of the core
// the host had meanwhile given to other guests, which the kernel, run back
// to back, does not see: over 14 schedd-light runs the kernel explained a
// quarter to a half of the round-to-round variance of the daemon's CPU
// time per submission. So in an open loop each gap also runs wakeProbes
// wake probes: sleep, then time a short walk of the kernel's table and one
// JSON decode and encode of a fixed document, as a request does after an
// idle spell. Over three sets of 14–16 schedd-light runs, scaling by the
// table part, the walk and the JSON to the powers 1/4, 1/4 and 1/2 took
// the calibrated latency's spread (IQR/median) from 12.6%, 18.4% and 7.9%
// to 11.5%, 10.0% and 6.5%, and that of the CPU time per submission from
// 6.5%, 12.7% and 7.4% to 5.5%, 2.5% and 5.2%.

// wakeProbes is how many wake probes run in each gap of an open loop.
const wakeProbes = 6

// wakeTime is one wake probe's wall time in ms, by part.
type wakeTime struct{ walk, json float64 }

// wakeDoc is the wake probe's JSON document: 24 stages, the size and shape
// of a small job submission. It is built here, not taken from the programs
// under test, so that a change to them cannot move the probe.
var wakeDoc = func() []byte {
	var b strings.Builder
	b.WriteString(`{"tenant":"bench","arrival":1234.5678,"job":{"name":"calib","stages":[`)
	for i := 0; i < 24; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"id":%d,"parents":[%d,%d],"tasks":%d,"phases":{"read_sec":%g,"compute_sec":%g,"write_sec":%g},"cpu":%g,"mem_mb":%d}`,
			i, i/2, i/3, 10+i*7, 1.5+float64(i)/7, 20.25+float64(i)*1.1, 0.75+float64(i)/9, 0.5+float64(i%4)/4, 512+i*64)
	}
	b.WriteString(`]}}`)
	return []byte(b.String())
}()

// wakeProbe sleeps 2 ms, then times 5,000 random read-modify-writes over
// the kernel's table and one decode and encode of wakeDoc. The kernel must
// have run first: it allocates the table.
func wakeProbe() wakeTime {
	time.Sleep(2 * time.Millisecond)
	t := time.Now()
	x, s := uint64(88172645463325252), uint64(0)
	for i := 0; i < 5000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(len(kernelTable))
		kernelTable[j] += s
		s += kernelTable[j]
	}
	kernelSum += s
	mid := time.Now()
	var v map[string]any
	if err := json.Unmarshal(wakeDoc, &v); err != nil {
		panic(err) // wakeDoc is fixed
	}
	kernelSink, _ = json.Marshal(v)
	return wakeTime{walk: ms(mid.Sub(t)), json: ms(time.Since(mid))}
}

// calibration is the kernel times of one round, kernelRuns per gap
// between two units: gap g precedes unit g, and the last gap follows the
// last unit.
type calibration struct {
	// eventsOnly scales by the event loop's times alone, for work whose
	// time follows them more closely than the whole kernel's (replay-plan).
	eventsOnly bool
	// wake also runs the wake probes and scales by them (an open loop).
	wake  bool
	gaps  [][]kernelTime
	wakes [][]wakeTime // per gap, when wake is set
}

// measure runs the kernel kernelRuns times on the measuring CPU, then the
// wake probes if the calibration uses them, and records the times as the
// next gap.
func (c *calibration) measure() {
	g := make([]kernelTime, kernelRuns)
	var w []wakeTime
	onMeasureCPU(func() {
		for i := range g {
			g[i] = kernel()
		}
		if c.wake {
			w = make([]wakeTime, wakeProbes)
			for i := range w {
				w[i] = wakeProbe()
			}
		}
	})
	c.gaps, c.wakes = append(c.gaps, g), append(c.wakes, w)
}

// scale is the factor that turns unit k's times into times at the
// reference speed: the reference time of each part the calibration uses
// over the median of its times in the gaps before and after the unit.
func (c *calibration) scale(k int) float64 {
	next := min(k+1, len(c.gaps)-1)
	var tables, events, whole []float64
	for _, t := range append(append([]kernelTime(nil), c.gaps[k]...), c.gaps[next]...) {
		tables, events, whole = append(tables, t.table), append(events, t.events), append(whole, t.table+t.events)
	}
	switch {
	case c.wake:
		var walks, jsons []float64
		for _, t := range append(append([]wakeTime(nil), c.wakes[k]...), c.wakes[next]...) {
			walks, jsons = append(walks, t.walk), append(jsons, t.json)
		}
		return math.Pow(refTableMS/median(tables), 0.25) * math.Pow(refWakeWalkMS/median(walks), 0.25) *
			math.Pow(refWakeJSONMS/median(jsons), 0.5)
	case c.eventsOnly:
		return refEventsMS / median(events)
	}
	return refKernelMS / median(whole)
}

// kernelScale is scale without the wake probes, for work that does not
// idle between requests, such as a daemon's set-up.
func (c *calibration) kernelScale(k int) float64 {
	whole := *c
	whole.wake = false
	return whole.scale(k)
}

// scales returns the factors of the round's n units.
func (c *calibration) scales(n int) []float64 {
	f := make([]float64, n)
	for k := range f {
		f[k] = c.scale(k)
	}
	return f
}

// measureThread runs the closures sent to it on an OS thread pinned to the
// measuring CPU; nil until placeThreads has run.
var measureThread chan func()

// measuringCPU is the CPU the programs under test run on, -1 when the
// process may use only one CPU and nothing is pinned.
var measuringCPU = -1

// onMeasureCPU runs f on the measuring CPU and waits for it. A child
// process started inside f inherits the CPU. Before placeThreads, or with
// a single CPU, it runs f in place.
func onMeasureCPU(f func()) {
	if measureThread == nil {
		f()
		return
	}
	done := make(chan struct{})
	measureThread <- func() { f(); close(done) }
	<-done
}

// cpuMask is a sched_setaffinity(2) CPU set.
type cpuMask [16]uint64

func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }
func (m *cpuMask) clear(cpu int)    { m[cpu/64] &^= 1 << (cpu % 64) }

func setAffinity(tid int, m *cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid),
		unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
	}
	return nil
}

// allowedCPUs returns the calling thread's CPU set and its CPUs in order.
func allowedCPUs() (cpuMask, []int, error) {
	var all cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0,
		unsafe.Sizeof(all), uintptr(unsafe.Pointer(&all))); errno != 0 {
		return all, nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var cpus []int
	for i := 0; i < len(all)*64; i++ {
		if all.has(i) {
			cpus = append(cpus, i)
		}
	}
	return all, cpus, nil
}

// placeThreads picks the highest CPU the process may use as the measuring
// CPU, moves every thread of the harness to the others, and starts the
// thread that runs work on the measuring CPU. Threads the runtime starts
// later inherit the harness CPUs: a locked thread creates none itself. With
// a single CPU it places nothing. It returns every CPU the process may use.
func placeThreads() ([]int, error) {
	all, cpus, err := allowedCPUs()
	if err != nil || len(cpus) < 2 {
		return cpus, err
	}
	cpu := cpus[len(cpus)-1]
	rest := all
	rest.clear(cpu)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return nil, err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, &rest); err != nil && !errors.Is(err, syscall.ESRCH) {
			return nil, err // ESRCH: the thread exited after the listing
		}
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	ready := make(chan error)
	work := make(chan func())
	go func() {
		runtime.LockOSThread() // for the life of the process
		if err := setAffinity(0, &one); err != nil {
			ready <- err
			return
		}
		ready <- nil
		for f := range work {
			f()
		}
	}()
	if err := <-ready; err != nil {
		return nil, err
	}
	measureThread, measuringCPU = work, cpu
	return cpus, nil
}

// A vCPU the hypervisor has descheduled does not run at all: on the
// development host the measuring CPU lost 2–26% of a schedd-light run that
// way, at times for seconds on end, and an open loop charges every request
// due meanwhile with the wait. The runs that lost the most read slowest
// (1.6 ms against a median of 0.25 ms at 26%). The guest kernel counts
// that time as steal, per CPU; every run notes how much it lost, so that a
// slow run can be told from a slow program.

// harnessCPUs is every CPU the harness may use, set by run.
var harnessCPUs []int

// stolenTicks returns the steal time of harnessCPUs so far, in clock ticks
// of 10 ms (USER_HZ): the eighth value of each CPU's line in /proc/stat.
func stolenTicks() (int64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	want := map[string]bool{}
	for _, c := range harnessCPUs {
		want["cpu"+strconv.Itoa(c)] = true
	}
	var ticks int64
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !want[f[0]] {
			continue
		}
		n, err := strconv.ParseInt(f[8], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/stat %s steal: %w", f[0], err)
		}
		ticks += n
	}
	return ticks, nil
}

// An idle vCPU halts, and the host is free to give its physical CPU to
// another guest until something wakes it. On the development host that
// wake-up, and the cold caches after it, dominated what the open loop
// measured: each request found the daemon's CPU halted. So for the length
// of a run every CPU the harness may use is held busy by a spinner: this
// binary in spin mode, an empty loop at SCHED_IDLE priority pinned to one
// CPU. Linux runs a SCHED_IDLE thread only when nothing else wants the CPU
// and preempts it the moment another thread wakes, so a spinner takes
// no time from the programs under test, the calibration kernel or the
// generator; it only keeps the vCPU from halting. The loop is plain jumps,
// not PAUSE: KVM takes a vCPU spinning on PAUSE for a lock waiter and
// yields its physical CPU, which is what the spinner is there to prevent.

// schedIdle is the SCHED_IDLE scheduling policy of sched_setscheduler(2).
const schedIdle = 5

// holdCPUs starts one spinner on each of cpus and returns the function
// that kills them and waits for them to end. It starts them from the
// measuring thread, which lives as long as the process, so that each
// spinner's parent-death signal fires only when the harness dies.
func holdCPUs(cpus []int) (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var spinners []*exec.Cmd
	stop = func() {
		for _, c := range spinners {
			_ = c.Process.Kill()
			_ = c.Wait() // reports the kill
		}
	}
	for _, cpu := range cpus {
		c := exec.Command(self, "spin", strconv.Itoa(cpu))
		c.Env = append(os.Environ(), "GOMAXPROCS=1")
		c.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		onMeasureCPU(func() { err = c.Start() })
		if err != nil {
			stop()
			return nil, fmt.Errorf("start spinner: %w", err)
		}
		spinners = append(spinners, c)
	}
	return stop, nil
}

// spinMain is spin mode: bench spin CPU. It pins itself to CPU, drops to
// SCHED_IDLE and spins until it is killed.
func spinMain(args []string) int {
	cpu, err := -1, error(nil)
	if len(args) == 1 {
		cpu, err = strconv.Atoi(args[0])
	}
	if err != nil || cpu < 0 || cpu >= len(cpuMask{})*64 {
		fmt.Fprintln(os.Stderr, "usage: bench spin CPU")
		return 2
	}
	runtime.LockOSThread()
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	if err := setAffinity(0, &one); err != nil {
		fmt.Fprintln(os.Stderr, "bench spin:", err)
		return 1
	}
	var param int32 // sched_priority, 0 for SCHED_IDLE
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle,
		uintptr(unsafe.Pointer(&param))); errno != 0 {
		fmt.Fprintln(os.Stderr, "bench spin: sched_setscheduler:", errno)
		return 1
	}
	for {
	}
}

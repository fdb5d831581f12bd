package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// A process's rusage maxrss starts from the peak resident size of the
// address space it was forked in: Linux carries the old peak over at
// exec. A replay started by the harness would therefore report the
// harness's peak whenever that is the larger, 158 MB for a 19 MB replay
// after the harness had parsed a 40,000-job trace. So each replay runs
// under a helper: this binary started afresh in spawn mode, a few MB
// resident, which runs the replay as its own child and reports the
// replay's exit status, times and peak RSS. The helper's own resident size
// when it forks is the least a replay's peak RSS can read; it is reported
// too. (A daemon's peak is read from /proc instead, before it is stopped.)

// spawnReport is what the helper writes to its report file.
type spawnReport struct {
	Code     int   `json:"code"`
	WallNS   int64 `json:"wall_ns"`   // fork to reaped
	CPUNS    int64 `json:"cpu_ns"`    // user + system
	MaxRSSKB int64 `json:"maxrss_kb"` // rusage maxrss
	// HelperRSSKB is the helper's resident size just before the fork.
	HelperRSSKB int64 `json:"helper_rss_kb"`
}

// spawnMain is spawn mode: bench spawn REPORT PROGRAM [ARG...]. It runs
// PROGRAM with the helper's standard output and error, then writes the
// report. It exits non-zero only if it cannot run PROGRAM or write the
// report; PROGRAM's own exit status is in the report.
func spawnMain(args []string) int {
	if len(args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: bench spawn REPORT PROGRAM [ARG...]")
		return 2
	}
	cmd := exec.Command(args[1], args[2:]...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	rss, err := procStatusKB(os.Getpid(), "VmRSS")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench spawn:", err)
		return 1
	}
	rep := spawnReport{HelperRSSKB: rss}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "bench spawn:", err)
		return 1
	}
	err = cmd.Wait()
	rep.WallNS = time.Since(start).Nanoseconds()
	if _, isExit := err.(*exec.ExitError); err != nil && !isExit {
		fmt.Fprintln(os.Stderr, "bench spawn:", err)
		return 1
	}
	st := cmd.ProcessState
	rep.Code = st.ExitCode()
	rep.CPUNS = (st.UserTime() + st.SystemTime()).Nanoseconds()
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		rep.MaxRSSKB = ru.Maxrss // Linux reports KiB
	}
	b, err := json.Marshal(rep)
	if err == nil {
		err = os.WriteFile(args[0], b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench spawn:", err)
		return 1
	}
	return 0
}

// runSpawned runs bin to completion under a spawn-mode helper on the
// measuring CPU and returns what the helper measured. report is the
// helper's report file.
func runSpawned(bin string, args []string, stdout, stderr *os.File, report string) (childExit, error) {
	self, err := os.Executable()
	if err != nil {
		return childExit{}, err
	}
	c, err := startChild(self, append([]string{"spawn", report, bin}, args...), stdout, stderr)
	if err != nil {
		return childExit{}, err
	}
	hx, err := c.wait()
	if err == nil && hx.code != 0 {
		err = fmt.Errorf("spawn helper exit %d", hx.code)
	}
	if err != nil {
		return childExit{}, err
	}
	b, err := os.ReadFile(report)
	if err != nil {
		return childExit{}, err
	}
	var rep spawnReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return childExit{}, fmt.Errorf("decode spawn report: %w", err)
	}
	rssFloor = max(rssFloor, float64(rep.HelperRSSKB)/1024)
	return childExit{code: rep.Code, wall: time.Duration(rep.WallNS), cpu: time.Duration(rep.CPUNS),
		maxRSS: float64(rep.MaxRSSKB) / 1024}, nil
}

// rssFloor is the largest resident size, in MB, a spawn helper had when it
// forked: the least a replay's peak RSS can read.
var rssFloor float64

// procStatusKB reads one kB field of /proc/<pid>/status, such as VmRSS or
// VmHWM.
func procStatusKB(pid int, field string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == field+":" {
			return strconv.ParseInt(f[1], 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

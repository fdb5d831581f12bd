package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// programs are the binaries under test, built from the checkout.
type programs struct {
	schedd, replay, tracegen string
}

// findRoot locates the repository root: the current directory when the
// harness runs from the root (bench/run.sh), its parent when it runs
// from bench/ (go run . / go test).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "schedd", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("cmd/schedd not found: run from the repository root")
}

// buildPrograms compiles cmd/schedd, cmd/replay and cmd/tracegen from
// the checkout at root into dir.
func buildPrograms(root, dir string) (programs, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return programs{}, err
	}
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
		"./cmd/schedd", "./cmd/replay", "./cmd/tracegen")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stderr, &stderr
	if err := cmd.Run(); err != nil {
		return programs{}, fmt.Errorf("go build: %v\n%s", err, stderr.String())
	}
	return programs{
		schedd:   filepath.Join(dir, "schedd"),
		replay:   filepath.Join(dir, "replay"),
		tracegen: filepath.Join(dir, "tracegen"),
	}, nil
}

// child is a program under test running as a child process.
type child struct {
	cmd   *exec.Cmd
	start time.Time
	done  bool
}

// startChild runs bin on the measuring CPU with GOMAXPROCS=1: that leaves
// the other CPUs to the load generator, and it removes the run-to-run
// variance that two competing worker threads add. The child is killed if
// the harness dies first.
func startChild(bin string, args []string, stdout, stderr *os.File) (*child, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stdout, cmd.Stderr = stdout, stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c := &child{cmd: cmd}
	var err error
	onMeasureCPU(func() {
		c.start = time.Now()
		err = cmd.Start()
	})
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	return c, nil
}

// childExit is what a finished child leaves behind.
type childExit struct {
	code   int
	wall   time.Duration // exec to exit
	cpu    time.Duration // user + system
	maxRSS float64       // MB; see spawn.go before trusting it
}

// wait reaps the child and collects its exit status and resource usage.
func (c *child) wait() (childExit, error) {
	err := c.cmd.Wait()
	c.done = true
	ex := childExit{wall: time.Since(c.start), code: -1}
	st := c.cmd.ProcessState
	if st == nil {
		return ex, err
	}
	ex.code = st.ExitCode()
	ex.cpu = st.UserTime() + st.SystemTime()
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		ex.maxRSS = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if _, isExit := err.(*exec.ExitError); isExit {
		err = nil // the exit code carries it
	}
	return ex, err
}

// peakRSS reads a running child's peak resident size in MB (VmHWM).
func (c *child) peakRSS() (float64, error) {
	kb, err := procStatusKB(c.cmd.Process.Pid, "VmHWM")
	return float64(kb) / 1024, err
}

// stop sends SIGTERM and reaps the child.
func (c *child) stop() (childExit, error) {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return childExit{}, fmt.Errorf("signal child: %w", err)
	}
	return c.wait()
}

// kill ends a child that is still running; error paths defer it.
func (c *child) kill() {
	if c.done {
		return
	}
	_ = c.cmd.Process.Kill() // already-exited children are reaped below
	_, _ = c.wait()
}

// cpuTime reads a running child's CPU time: the sum over its threads of
// the nanosecond run times in /proc/<pid>/task/*/schedstat (the Go
// runtime keeps its threads, so none drops out of the sum).
func (c *child) cpuTime() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", c.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s schedstat", t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("schedstat: %w", err)
		}
		sum += ns
	}
	return time.Duration(sum), nil
}

package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// conn is one keep-alive HTTP/1.1 connection used by exactly one
// goroutine. The load generator writes requests itself instead of using
// net/http's client so that it owns every goroutine and connection it
// opens: one goroutine per stream, one connection per goroutine.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	host string
	// reqID, when set, is sent as X-Bench-Req so an in-process server can
	// link its spans to the client's.
	reqID string
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c), host: addr}, nil
}

func (c *conn) close() { c.c.Close() }

// requestTimeout bounds one request, so a wedged server fails the run
// instead of hanging it.
const requestTimeout = 60 * time.Second

// do sends one request and reads the whole response.
func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	fmt.Fprintf(c.bw, "%s %s HTTP/1.1\r\nHost: %s\r\n", method, path, c.host)
	if c.reqID != "" {
		fmt.Fprintf(c.bw, "X-Bench-Req: %s\r\n", c.reqID)
	}
	if body != nil {
		c.bw.WriteString("Content-Type: application/json\r\nContent-Length: ")
		c.bw.WriteString(strconv.Itoa(len(body)))
		c.bw.WriteString("\r\n")
	}
	c.bw.WriteString("\r\n")
	c.bw.Write(body)
	if err := c.bw.Flush(); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.Close {
		err = fmt.Errorf("server closed the connection")
	}
	return resp.StatusCode, b, err
}

// pacer sleeps a stream until its requests are due. time.Sleep wakes up
// to a millisecond late for short sleeps and nanosleep(2) parks the
// thread outside the scheduler (a wakeup on the other connection then
// waits for it), so the pacer arms a timerfd and reads it through the
// runtime's poller (about 60 µs late), then spins the final spinWindow:
// the generator's own lateness stays far below what it measures.
type pacer struct {
	fd int
	f  *os.File
}

const spinWindow = 150 * time.Microsecond

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// A non-blocking descriptor makes the os.File pollable; Fd() must not
	// be called on it, since that switches it back to blocking mode.
	return &pacer{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

func (p *pacer) close() { p.f.Close() }

// waitUntil blocks until t.
func (p *pacer) waitUntil(t time.Time) error {
	if d := time.Until(t) - spinWindow; d > 0 {
		// struct itimerspec: it_interval (zero: one-shot), it_value.
		spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
		if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(p.fd), 0,
			uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
			return fmt.Errorf("timerfd_settime: %w", errno)
		}
		var expirations [8]byte
		if _, err := p.f.Read(expirations[:]); err != nil {
			return fmt.Errorf("timerfd read: %w", err)
		}
	}
	for time.Now().Before(t) {
	}
	return nil
}

// sample is one request's timing. Latency is measured from due, the
// instant the schedule wanted the request sent (coordinated-omission
// safe: a stall also charges every request it delayed); late is how far
// after due the generator actually sent it while it was otherwise idle.
type sample struct {
	due, sent, done time.Time
	status          int
	err             error
}

func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// stream issues requests on one connection. In open loop request i is
// due at start+at(i); in closed loop each request is due when the
// previous response arrives (or, with after set, when after returns).
// stop, when non-nil, ends the stream early once it is closed. send
// performs request i and returns its status; after, when non-nil, runs
// once request i has returned, outside its timing.
type stream struct {
	n     int
	at    func(i int) time.Duration // nil = closed loop
	send  func(i int) (int, error)
	after func(i int) error
	stop  <-chan struct{}
	hold  *gate // open loop only: pauses the stream while shut
}

// gate lets one goroutine pause an open-loop stream. While it is shut no
// request of the stream is in flight or sent, and the stream's schedule
// moves later by the time it stayed shut, so that the pause is not
// charged as latency.
type gate struct {
	mu       sync.Mutex
	cond     sync.Cond
	shut     bool
	inFlight bool
	since    time.Time
	moved    time.Duration
}

func newGate() *gate {
	g := &gate{}
	g.cond.L = &g.mu
	return g
}

// close shuts the gate once the request in flight, if any, has returned.
func (g *gate) close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.inFlight {
		g.cond.Wait()
	}
	g.shut, g.since = true, time.Now()
}

func (g *gate) open() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.shut = false
	g.moved += time.Since(g.since)
	g.cond.Broadcast()
}

// enter marks a request in flight and returns true if the gate is open.
// Otherwise it waits for the gate to open and returns false: the request's
// due time has moved.
func (g *gate) enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.shut {
		g.inFlight = true
		return true
	}
	for g.shut {
		g.cond.Wait()
	}
	return false
}

func (g *gate) leave() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.inFlight = false
	g.cond.Broadcast()
}

// offset is how far the gate has moved the schedule.
func (g *gate) offset() time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.moved
}

// run drives the stream from start and returns one sample per request
// issued.
func (st stream) run(start time.Time) ([]sample, error) {
	p, err := newPacer()
	if err != nil {
		return nil, err
	}
	defer p.close()
	out := make([]sample, 0, min(st.n, 1<<16))
	prev := start
	for i := 0; i < st.n; i++ {
		if st.stop != nil {
			select {
			case <-st.stop:
				return out, nil
			default:
			}
		}
		due := prev
		for st.at != nil {
			var moved time.Duration
			if st.hold != nil {
				moved = st.hold.offset()
			}
			due = start.Add(st.at(i) + moved)
			if err := p.waitUntil(due); err != nil {
				return nil, err
			}
			if st.hold == nil || st.hold.enter() {
				break
			}
		}
		s := sample{due: due, sent: time.Now()}
		s.status, s.err = st.send(i)
		s.done = time.Now()
		if st.hold != nil {
			st.hold.leave()
		}
		prev = s.done
		out = append(out, s)
		if st.after != nil {
			if err := st.after(i); err != nil {
				return nil, err
			}
			prev = time.Now()
		}
	}
	return out, nil
}

// lateness returns the generator's send lateness, in seconds, over the
// requests it found idle at their due time (a request queued behind a
// slow predecessor is late because of the server, not the generator).
func lateness(ss []sample) []float64 {
	var out []float64
	for i, s := range ss {
		if i > 0 && ss[i-1].done.After(s.due) {
			continue
		}
		out = append(out, s.sent.Sub(s.due).Seconds())
	}
	return out
}

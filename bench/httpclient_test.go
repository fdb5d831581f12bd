package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// A server stall must be charged to every request it delayed: latency is
// timed from each request's due instant, not from when the generator
// managed to send it (coordinated omission).
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const (
		interval = 10 * time.Millisecond
		stall    = 60 * time.Millisecond
		stalled  = 2 // request index the server stalls on
	)
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)-1 == stalled {
			time.Sleep(stall)
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	cn, err := dial(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer cn.close()
	st := stream{n: 8,
		at:   func(i int) time.Duration { return time.Duration(i) * interval },
		send: func(int) (int, error) { code, _, err := cn.do("GET", "/", nil); return code, err }}
	ss, err := st.run(time.Now().Add(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 8 {
		t.Fatalf("%d samples, want 8", len(ss))
	}
	for i, s := range ss {
		if s.status != 200 || s.err != nil {
			t.Fatalf("request %d: %d %v", i, s.status, s.err)
		}
	}
	// Request stalled+1 was due 10 ms after the stalled one but could only
	// be sent once it returned: its latency includes ~50 ms of queueing
	// although its own service time is tiny.
	next := ss[stalled+1]
	if q := next.sent.Sub(next.due); q < stall-interval-5*time.Millisecond {
		t.Errorf("request after the stall sent %v after due, want ≈ %v", q, stall-interval)
	}
	if l := next.latency(); l < stall-interval-5*time.Millisecond {
		t.Errorf("latency after the stall %v, want ≥ %v: the queueing delay was dropped", l, stall-interval)
	}
	if svc := next.done.Sub(next.sent); next.latency() < 10*svc {
		t.Errorf("latency %v should dwarf the service time %v", next.latency(), svc)
	}
	// Lateness counts only sends that found the generator idle, so the
	// queued requests do not blame the pacer for the server's stall.
	late := lateness(ss)
	if len(late) >= len(ss) {
		t.Errorf("lateness over %d sends, want the queued ones excluded", len(late))
	}
	if p50 := percentile(late, 0.5); p50 > 0.002 {
		t.Errorf("pacer lateness p50 %.0f µs, want < 2 ms", p50*1e6)
	}
}

// A closed-loop stream sends each request when the previous one returns.
func TestClosedLoopDueIsPreviousCompletion(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
	}))
	defer srv.Close()
	cn, err := dial(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer cn.close()
	st := stream{n: 4, send: func(int) (int, error) { code, _, err := cn.do("GET", "/", nil); return code, err }}
	ss, err := st.run(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ss); i++ {
		if !ss[i].due.Equal(ss[i-1].done) {
			t.Errorf("request %d due %v, want the previous completion %v", i, ss[i].due, ss[i-1].done)
		}
	}
}

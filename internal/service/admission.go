package service

import (
	"fmt"
	"sync"
	"time"
)

// AdmissionRequest is what a policy sees when a job asks to enter the
// system — modeled on the ClusterArrival → AdmissionDecision stage of a
// control plane: identity, the job's shape, and the live cluster state the
// data plane observed at the arrival instant.
type AdmissionRequest struct {
	// Tenant is the submitting principal ("" = anonymous, which token
	// buckets treat as one shared tenant).
	Tenant string
	// Stages is the job's stage count (a cheap size proxy).
	Stages int
	// Arrival is the effective simulated arrival time.
	Arrival float64
	// QueueDepth is the number of admitted-but-unfinished jobs after the
	// data plane advanced to Arrival — live state, not a stale snapshot.
	QueueDepth int
	// Now is the wall-clock receive time (token buckets refill on it).
	Now time.Time
}

// AdmissionDecision is a policy's verdict.
type AdmissionDecision struct {
	Accept bool
	// Reason explains a rejection ("" when accepted); it is surfaced in
	// the HTTP response and the job's terminal status.
	Reason string
}

// AdmissionPolicy decides, per arriving job, whether the control plane
// admits it into planning. Implementations must be safe for concurrent
// use (the HTTP stack calls Admit from handler goroutines).
type AdmissionPolicy interface {
	// Name labels the policy in metrics and status output.
	Name() string
	Admit(AdmissionRequest) AdmissionDecision
}

// AcceptAll admits everything — the default policy.
type AcceptAll struct{}

// Name implements AdmissionPolicy.
func (AcceptAll) Name() string { return "accept-all" }

// Admit implements AdmissionPolicy.
func (AcceptAll) Admit(AdmissionRequest) AdmissionDecision {
	return AdmissionDecision{Accept: true}
}

// QueueDepthCap rejects arrivals once the number of live (admitted,
// unfinished) jobs reaches Max — classic load shedding keyed on the state
// the data plane actually observes.
type QueueDepthCap struct {
	// Max is the live-job count at which new arrivals bounce. Zero or
	// negative admits nothing (a closed valve is explicit, not a default).
	Max int
}

// Name implements AdmissionPolicy.
func (QueueDepthCap) Name() string { return "queue-depth-cap" }

// Admit implements AdmissionPolicy.
func (q QueueDepthCap) Admit(r AdmissionRequest) AdmissionDecision {
	if r.QueueDepth >= q.Max {
		return AdmissionDecision{Reason: fmt.Sprintf("queue depth %d ≥ cap %d", r.QueueDepth, q.Max)}
	}
	return AdmissionDecision{Accept: true}
}

// TokenBucket rate-limits submissions per tenant: each tenant owns a
// bucket holding up to Burst tokens that refills at Rate tokens per
// wall-clock second; a submission spends one token or is rejected.
type TokenBucket struct {
	rate, burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	level float64
	last  time.Time
}

// NewTokenBucket builds a per-tenant token-bucket policy admitting
// sustained `rate` jobs/second with bursts up to `burst`.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{rate: rate, burst: burst, buckets: map[string]*bucket{}}
}

// Name implements AdmissionPolicy.
func (*TokenBucket) Name() string { return "token-bucket" }

// Admit implements AdmissionPolicy.
func (t *TokenBucket) Admit(r AdmissionRequest) AdmissionDecision {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.buckets[r.Tenant]
	if b == nil {
		// A fresh tenant starts with a full burst allowance.
		b = &bucket{level: t.burst, last: r.Now}
		t.buckets[r.Tenant] = b
	}
	if dt := r.Now.Sub(b.last).Seconds(); dt > 0 {
		b.level += float64(dt * t.rate)
		if b.level > t.burst {
			b.level = t.burst
		}
	}
	b.last = r.Now
	if b.level < 1 {
		return AdmissionDecision{Reason: fmt.Sprintf("tenant %q over rate (%.3g jobs/s, burst %.3g)", r.Tenant, t.rate, t.burst)}
	}
	b.level--
	return AdmissionDecision{Accept: true}
}

package service

import (
	"hash/maphash"
	"sync"

	"delaystage/internal/dag"
	"delaystage/internal/workload"
)

// Interned job specs. Recurring jobs resubmit the same spec, often byte
// for byte, and the HTTP path would decode, build and validate it, and
// fingerprint it, on every POST. The service instead keeps each accepted
// spec, keyed by the exact bytes of the submission's job value, with the
// job Spec.Job built from them and the facts derived from that job. A
// POST whose job bytes equal a key skips the job's decode
// (jobspec.DecodeSubmissionKnown) and reuses the entry.
//
// Reuse is sound because a key is only ever bytes for which Spec.Job
// succeeded on this service: the decoder is deterministic and the
// service's cluster is fixed, so decoding and building the same bytes
// again would yield an equal job. Byte equality is strict: a spec that
// differs only in whitespace or key order misses.
//
// Entries are shared between submissions and goroutines read-only. A
// validated dag.Graph is safe for concurrent readers, and nothing in
// service, scheduler, core or sim writes to a submitted job or to a
// record's stageParents.

// A spec is interned on its second sighting: the first leaves only a
// 64-bit hash of its bytes behind. A stream of specs that never recur
// thus copies no keys and keeps no jobs alive. A hash collision can only
// make a spec interned on its first sighting.
//
// maxInternBytes caps the total length of the interned keys; the number
// of entries, and of first-sighting hashes, is capped by
// Options.CacheCapacity.
const maxInternBytes = 4 << 20

// specFacts is one interned spec: its validated job, the job's template
// fingerprint and its stageParents rendering.
type specFacts struct {
	job     *workload.Job
	fp      uint64
	parents map[dag.StageID]string
}

// newSpecFacts derives the facts of a validated job.
func newSpecFacts(job *workload.Job) *specFacts {
	return &specFacts{job: job, fp: Fingerprint(job), parents: stageParents(job.Graph)}
}

// specTable is the bounded intern table with FIFO eviction. It has its
// own lock: the HTTP path reads and fills it outside the service mutex.
type specTable struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*specFacts
	order    []string // keys in insertion order, oldest first
	size     int      // Σ len(key) over entries

	// seen holds the hashes of specs sighted once, and seenRing the same
	// hashes in a ring whose next slot to overwrite is seenNext.
	seed     maphash.Seed
	seen     map[uint64]struct{}
	seenRing []uint64
	seenNext int
}

func newSpecTable(capacity int) *specTable {
	return &specTable{
		capacity: capacity,
		entries:  make(map[string]*specFacts),
		seed:     maphash.MakeSeed(),
		seen:     make(map[uint64]struct{}),
		seenRing: make([]uint64, capacity),
	}
}

// get returns the entry keyed by v, or nil.
func (t *specTable) get(v []byte) *specFacts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.entries[string(v)]
}

// put records a sighting of the spec v, whose job Spec.Job built and
// whose facts are f. On the first sighting it keeps v's hash; on a later
// one it interns f under a copy of v, evicting the oldest entries to stay
// within both caps. A key longer than maxInternBytes is not interned. put
// returns the entry count.
func (t *specTable) put(v []byte, f *specFacts) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(v) > maxInternBytes || t.entries[string(v)] != nil {
		return len(t.entries)
	}
	if h := maphash.Bytes(t.seed, v); !t.sighted(h) {
		return len(t.entries)
	}
	for len(t.order) > 0 && (len(t.order) >= t.capacity || t.size+len(v) > maxInternBytes) {
		oldest := t.order[0]
		t.order[0] = "" // the array keeps no evicted key alive
		t.order = t.order[1:]
		t.size -= len(oldest)
		delete(t.entries, oldest)
	}
	k := string(v)
	t.entries[k] = f
	t.order = append(t.order, k)
	t.size += len(k)
	return len(t.entries)
}

// sighted reports whether h is in the first-sighting set, and adds it,
// overwriting the oldest hash once the ring is full, when it is not.
func (t *specTable) sighted(h uint64) bool {
	if _, ok := t.seen[h]; ok {
		return true
	}
	if len(t.seen) == len(t.seenRing) {
		delete(t.seen, t.seenRing[t.seenNext])
	}
	t.seen[h] = struct{}{}
	t.seenRing[t.seenNext] = h
	t.seenNext = (t.seenNext + 1) % len(t.seenRing)
	return false
}

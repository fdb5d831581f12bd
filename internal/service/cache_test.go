package service

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/workload"
)

// referenceFingerprint is Fingerprint as it was written over a stage →
// rank map and a sorted copy of the stage IDs: the byte stream the
// rank-ordered Fingerprint must keep hashing, so stored fingerprints and
// the plan goldens do not move.
func referenceFingerprint(j *workload.Job) uint64 {
	ids := j.Graph.Stages()
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	rank := make(map[dag.StageID]int, len(ids))
	for i, id := range ids {
		rank[id] = i
	}
	h := fnv.New64a()
	buf := make([]byte, 0, 64)
	putInt := func(v int64) {
		buf = buf[:0]
		for i := 0; i < 8; i++ {
			buf = append(buf, byte(uint64(v)>>(8*i)))
		}
		h.Write(buf)
	}
	putInt(int64(len(ids)))
	for i, id := range ids {
		putInt(int64(i))
		parents := j.Graph.Parents(id)
		pr := make([]int, 0, len(parents))
		for _, p := range parents {
			pr = append(pr, rank[p])
		}
		sort.Ints(pr)
		putInt(int64(len(pr)))
		for _, p := range pr {
			putInt(int64(p))
		}
		prof := j.Profiles[id]
		putInt(qlog(float64(prof.ShuffleIn)))
		putInt(qlog(float64(prof.ShuffleOut)))
		putInt(qlog(prof.ProcRate))
		putInt(int64(math.Round(prof.Skew * 20)))
		putInt(int64(prof.Tasks))
	}
	return h.Sum64()
}

// shuffledCopy returns job with its stage IDs permuted at random, stages
// in the same insertion order, so ID order and insertion order differ.
func shuffledCopy(t *testing.T, job *workload.Job, rng *rand.Rand) *workload.Job {
	t.Helper()
	ids := job.Graph.StagesView()
	perm := rng.Perm(len(ids))
	to := make(map[dag.StageID]dag.StageID, len(ids))
	for i, id := range ids {
		to[id] = dag.StageID(perm[i] * 3)
	}
	g := dag.New()
	profiles := make(map[dag.StageID]workload.StageProfile, len(ids))
	for _, id := range ids {
		st := job.Graph.Stage(id)
		parents := make([]dag.StageID, len(st.Parents))
		for i, p := range st.Parents {
			parents[i] = to[p]
		}
		g.MustAdd(dag.Stage{ID: to[id], Name: st.Name, Parents: parents})
		profiles[to[id]] = job.Profiles[id]
	}
	out := &workload.Job{Name: job.Name, Graph: g, Profiles: profiles}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFingerprintMatchesReference: the rank-ordered Fingerprint hashes the
// same bytes as the stage → rank map reference over the gallery, the
// paper workloads, ALS and random DAGs, each also renamed, one ulp off
// and with its IDs shuffled.
func TestFingerprintMatchesReference(t *testing.T) {
	c := cluster.NewM4LargeCluster(10)
	jobs := workload.Gallery(c, 0.15)
	for name, job := range workload.PaperWorkloads(c, 0.15) {
		jobs[name] = job
	}
	jobs["ALS"] = workload.ALS(c, 0.15)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		jobs[fmt.Sprintf("random-%03d", i)] = workload.RandomJob("random", c, 1+rng.Intn(40), rng)
	}
	names := make([]string, 0, len(jobs))
	for name := range jobs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		job := jobs[name]
		if err := job.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, v := range []struct {
			name string
			job  *workload.Job
		}{
			{"source", job},
			{"renamed", renamedCopy(t, job)},
			{"one ulp", ulpCopy(t, job)},
			{"shuffled", shuffledCopy(t, job, rng)},
		} {
			if got, want := Fingerprint(v.job), referenceFingerprint(v.job); got != want {
				t.Fatalf("%s/%s: Fingerprint %016x, reference %016x", name, v.name, got, want)
			}
		}
	}
}

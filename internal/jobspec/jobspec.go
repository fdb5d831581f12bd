// Package jobspec loads and saves DAG-job descriptions as JSON and exports
// them (and their delay schedules) as Graphviz DOT. It is the interchange
// layer that lets cmd/delaystage and cmd/simulate operate on arbitrary
// user-provided jobs instead of only the built-in paper workloads.
//
// A spec describes each stage either by explicit resource quantities
// (shuffle bytes, processing rate) or by intended uncontended phase
// durations on a reference cluster — the same two views the workload
// package supports.
package jobspec

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"delaystage/internal/cluster"
	"delaystage/internal/dag"
	"delaystage/internal/workload"
)

// Spec is the on-disk JSON form of a job.
type Spec struct {
	Name   string      `json:"name"`
	Stages []StageSpec `json:"stages"`
}

// StageSpec describes one stage. Exactly one of (Phases) or (Resources)
// must be set.
type StageSpec struct {
	ID      int    `json:"id"`
	Name    string `json:"name,omitempty"`
	Parents []int  `json:"parents,omitempty"`

	// Phases gives uncontended phase durations on the reference cluster.
	Phases *PhaseSpec `json:"phases,omitempty"`
	// Resources gives explicit quantities.
	Resources *ResourceSpec `json:"resources,omitempty"`
}

// PhaseSpec mirrors workload.PhaseSpec in JSON form.
type PhaseSpec struct {
	ReadSec    float64 `json:"read_sec"`
	ComputeSec float64 `json:"compute_sec"`
	WriteSec   float64 `json:"write_sec"`
	Skew       float64 `json:"skew,omitempty"`
	Tasks      int     `json:"tasks,omitempty"`
}

// ResourceSpec mirrors workload.StageProfile in JSON form.
type ResourceSpec struct {
	ShuffleInBytes  int64   `json:"shuffle_in_bytes"`
	ShuffleOutBytes int64   `json:"shuffle_out_bytes"`
	ProcRateBps     float64 `json:"proc_rate_bps"`
	Skew            float64 `json:"skew,omitempty"`
	Tasks           int     `json:"tasks,omitempty"`
}

// Parse reads a Spec from JSON, decoded as DecodeSubmission decodes a
// submission's job but with no stage limit, and validates it.
func Parse(r io.Reader) (*Spec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("jobspec: %w", err)
	}
	s, err := decodeSpec(data)
	if err != nil {
		return nil, err
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Load reads a Spec from a file.
func Load(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("jobspec: %w", err)
	}
	defer f.Close()
	return Parse(f)
}

func (s *Spec) validate() error {
	if len(s.Stages) == 0 {
		return fmt.Errorf("jobspec: no stages")
	}
	seen := map[int]bool{}
	for _, st := range s.Stages {
		if seen[st.ID] {
			return fmt.Errorf("jobspec: duplicate stage id %d", st.ID)
		}
		seen[st.ID] = true
		if (st.Phases == nil) == (st.Resources == nil) {
			return fmt.Errorf("jobspec: stage %d must set exactly one of phases/resources", st.ID)
		}
	}
	for _, st := range s.Stages {
		for _, p := range st.Parents {
			if !seen[p] {
				return fmt.Errorf("jobspec: stage %d references unknown parent %d", st.ID, p)
			}
		}
	}
	return nil
}

// Job validates the spec and materializes it into a workload.Job against
// the reference cluster (used to convert phase durations into byte
// quantities). A Spec decoded without Parse, for example as the job of a
// Submission, gets the same checks and error messages here.
func (s *Spec) Job(ref *cluster.Cluster) (*workload.Job, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	edges := 0
	for _, st := range s.Stages {
		edges += len(st.Parents)
	}
	g := dag.NewSized(len(s.Stages), edges)
	profiles := make(map[dag.StageID]workload.StageProfile, len(s.Stages))
	var parents []dag.StageID // reused: AddStage copies the list
	for _, st := range s.Stages {
		parents = parents[:0]
		for _, p := range st.Parents {
			parents = append(parents, dag.StageID(p))
		}
		if err := g.AddStage(dag.Stage{ID: dag.StageID(st.ID), Name: st.Name, Parents: parents}); err != nil {
			return nil, fmt.Errorf("jobspec: %w", err)
		}
		switch {
		case st.Phases != nil:
			profiles[dag.StageID(st.ID)] = workload.FromPhases(ref, workload.PhaseSpec{
				ReadSec:    st.Phases.ReadSec,
				ComputeSec: st.Phases.ComputeSec,
				WriteSec:   st.Phases.WriteSec,
				Skew:       st.Phases.Skew,
				Tasks:      st.Phases.Tasks,
			})
		case st.Resources != nil:
			profiles[dag.StageID(st.ID)] = workload.StageProfile{
				ShuffleIn:  st.Resources.ShuffleInBytes,
				ShuffleOut: st.Resources.ShuffleOutBytes,
				ProcRate:   st.Resources.ProcRateBps,
				Skew:       st.Resources.Skew,
				Tasks:      st.Resources.Tasks,
			}
		}
	}
	j := &workload.Job{Name: s.Name, Graph: g, Profiles: profiles}
	if err := j.Validate(); err != nil {
		return nil, fmt.Errorf("jobspec: %w", err)
	}
	return j, nil
}

// FromJob converts a workload.Job back into a resource-quantity Spec
// (round-trippable; phase view is lossy so it is not reconstructed).
func FromJob(j *workload.Job) *Spec {
	s := &Spec{Name: j.Name}
	for _, id := range j.Graph.Stages() {
		st := j.Graph.Stage(id)
		p := j.Profiles[id]
		var parents []int
		for _, pid := range st.Parents {
			parents = append(parents, int(pid))
		}
		s.Stages = append(s.Stages, StageSpec{
			ID:      int(id),
			Name:    st.Name,
			Parents: parents,
			Resources: &ResourceSpec{
				ShuffleInBytes:  p.ShuffleIn,
				ShuffleOutBytes: p.ShuffleOut,
				ProcRateBps:     p.ProcRate,
				Skew:            p.Skew,
				Tasks:           p.Tasks,
			},
		})
	}
	return s
}

// Write emits the spec as indented JSON.
func (s *Spec) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// DOT renders the job's DAG in Graphviz format. delays, if non-nil,
// annotates delayed stages (label suffix and doubled outline); parallel
// stages get a distinct fill so the schedule is readable at a glance.
func DOT(j *workload.Job, delays map[dag.StageID]float64) (string, error) {
	reach, err := dag.NewReachability(j.Graph)
	if err != nil {
		return "", err
	}
	inK := map[dag.StageID]bool{}
	for _, id := range dag.ParallelStages(j.Graph, reach) {
		inK[id] = true
	}
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n  node [shape=box, style=filled, fillcolor=white];\n", j.Name)
	ids := j.Graph.Stages()
	sort.Slice(ids, func(a, c int) bool { return ids[a] < ids[c] })
	for _, id := range ids {
		st := j.Graph.Stage(id)
		label := fmt.Sprintf("S%d", id)
		if st.Name != "" {
			// \n is a Graphviz line break; escape quotes only.
			label = fmt.Sprintf("S%d\\n%s", id, strings.ReplaceAll(st.Name, `"`, `\"`))
		}
		attrs := []string{fmt.Sprintf("label=\"%s\"", label)}
		if inK[id] {
			attrs = append(attrs, "fillcolor=lightblue")
		}
		if d, ok := delays[id]; ok && d > 0 {
			attrs = append(attrs, "peripheries=2", fmt.Sprintf("xlabel=\"+%.0fs\"", d))
		}
		fmt.Fprintf(&b, "  s%d [%s];\n", id, strings.Join(attrs, ", "))
	}
	for _, id := range ids {
		for _, p := range j.Graph.Parents(id) {
			fmt.Fprintf(&b, "  s%d -> s%d;\n", p, id)
		}
	}
	b.WriteString("}\n")
	return b.String(), nil
}

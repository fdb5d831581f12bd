package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
)

// The Alibaba v2018 trace ships machine_usage.csv — per-machine resource
// samples — which is what the paper's Fig. 4 plots. This file provides a
// parser for that format, the Fig. 4 statistics over it, and a writer so
// simulated replays can be exported in the same shape.

// UsageSample is one machine_usage.csv row (the columns Fig. 4 needs).
type UsageSample struct {
	MachineID string
	Time      float64 // seconds since trace start
	CPUUtil   float64 // percent, 0–100
	NetIn     float64 // normalized 0–100 (the trace reports normalized units)
	NetOut    float64
}

// Usage is a parsed machine_usage table, grouped by machine.
type Usage struct {
	Machines map[string][]UsageSample // per machine, sorted by time
}

// ParseUsage reads machine_usage.csv: columns machine_id, time_stamp,
// cpu_util_percent, mem_util_percent, mem_gps, mkpi, net_in, net_out,
// disk_io_percent. Missing numeric fields (empty strings appear in the
// real trace) parse as NaN-skipped samples.
func ParseUsage(r io.Reader) (*Usage, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	u := &Usage{Machines: map[string][]UsageSample{}}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: usage: %w", err)
		}
		if len(rec) < 3 {
			return nil, fmt.Errorf("trace: usage record has %d fields, want ≥3", len(rec))
		}
		ts, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: usage timestamp %q", rec[1])
		}
		cpu, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			continue // empty cpu fields occur in the real trace
		}
		s := UsageSample{MachineID: rec[0], Time: ts, CPUUtil: cpu}
		if len(rec) > 6 {
			s.NetIn, _ = strconv.ParseFloat(rec[6], 64)
		}
		if len(rec) > 7 {
			s.NetOut, _ = strconv.ParseFloat(rec[7], 64)
		}
		u.Machines[s.MachineID] = append(u.Machines[s.MachineID], s)
	}
	for id := range u.Machines {
		ms := u.Machines[id]
		sort.Slice(ms, func(i, j int) bool { return ms[i].Time < ms[j].Time })
		u.Machines[id] = ms
	}
	if len(u.Machines) == 0 {
		return nil, fmt.Errorf("trace: usage: no samples")
	}
	return u, nil
}

// WriteUsage emits the table in machine_usage.csv column order.
func (u *Usage) WriteUsage(w io.Writer) error {
	cw := csv.NewWriter(w)
	ids := make([]string, 0, len(u.Machines))
	for id := range u.Machines {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		for _, s := range u.Machines[id] {
			rec := []string{
				s.MachineID,
				strconv.FormatFloat(s.Time, 'f', 0, 64),
				strconv.FormatFloat(s.CPUUtil, 'f', 2, 64),
				"", "", "",
				strconv.FormatFloat(s.NetIn, 'f', 2, 64),
				strconv.FormatFloat(s.NetOut, 'f', 2, 64),
				"",
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// UsageStats are the Fig. 4 headline numbers.
type UsageStats struct {
	Machines       int
	MeanCPU        float64 // percent, across all samples
	MeanNet        float64 // percent, (in+out)/2
	LowCPUFraction float64 // fraction of samples below 10% CPU (paper: 39.1% for m_2077)
	MinCPU, MaxCPU float64
}

// AnalyzeUsage computes the Fig. 4 statistics, optionally restricted to
// one machine ("" = all machines, the Fig. 4a view; a machine id = the
// Fig. 4b view).
func AnalyzeUsage(u *Usage, machineID string) (UsageStats, error) {
	st := UsageStats{MinCPU: 101}
	var cpuSum, netSum float64
	n := 0
	low := 0
	for id, ms := range u.Machines {
		if machineID != "" && id != machineID {
			continue
		}
		st.Machines++
		for _, s := range ms {
			cpuSum += s.CPUUtil
			netSum += float64((s.NetIn + s.NetOut) / 2)
			n++
			if s.CPUUtil < 10 {
				low++
			}
			if s.CPUUtil < st.MinCPU {
				st.MinCPU = s.CPUUtil
			}
			if s.CPUUtil > st.MaxCPU {
				st.MaxCPU = s.CPUUtil
			}
		}
	}
	if n == 0 {
		return st, fmt.Errorf("trace: usage: no samples for machine %q", machineID)
	}
	st.MeanCPU = cpuSum / float64(n)
	st.MeanNet = netSum / float64(n)
	st.LowCPUFraction = float64(low) / float64(n)
	return st, nil
}

// newUsageRand isolates the generator's randomness source.
func newUsageRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// GenerateUsage synthesizes a machine_usage table calibrated to Fig. 4:
// each machine alternates bursty busy periods (CPU near saturation) and
// idle troughs, so per-machine utilization swings 0–98% while the fleet
// average sits in the paper's 20–50% band and machines spend ≈39% of
// samples below 10% CPU.
func GenerateUsage(machines int, span, interval float64, seed int64) *Usage {
	rng := newUsageRand(seed)
	u := &Usage{Machines: map[string][]UsageSample{}}
	for m := 0; m < machines; m++ {
		id := fmt.Sprintf("m_%d", m+1)
		busy := rng.Float64() < 0.5 // start state
		// Mean sojourn times tuned for ≈39% idle-sample share.
		busyMean, idleMean := 6*interval, 4*interval
		remaining := rng.ExpFloat64() * busyMean
		for t := 0.0; t < span; t += interval {
			for remaining <= 0 {
				busy = !busy
				if busy {
					remaining += float64(rng.ExpFloat64() * busyMean)
				} else {
					remaining += float64(rng.ExpFloat64() * idleMean)
				}
			}
			remaining -= interval
			var cpu, net float64
			if busy {
				cpu = 55 + float64(rng.Float64()*43) // 55–98%
				net = 20 + float64(rng.Float64()*42)
			} else {
				cpu = rng.Float64() * 10 // 0–10%
				net = rng.Float64() * 8
			}
			u.Machines[id] = append(u.Machines[id], UsageSample{
				MachineID: id, Time: t, CPUUtil: cpu, NetIn: net, NetOut: net * 0.9,
			})
		}
	}
	return u
}

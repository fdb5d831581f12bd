// Package delaystage reproduces "Stage Delay Scheduling: Speeding up
// DAG-style Data Analytics Jobs with Resource Interleaving" (Shao et al.,
// ICPP 2019) as a pure-Go library plus a simulated Spark/EC2 substrate.
//
// The public surface lives in the internal packages (this repository is a
// self-contained reproduction, not an importable SDK):
//
//   - internal/core — the DelayStage delay-time calculator (Alg. 1)
//   - internal/sim — the fluid cluster simulator standing in for Spark
//   - internal/scheduler — stock Spark, AggShuffle, Fuxi, DelayStage
//   - internal/workload, internal/trace — the paper's workloads and the
//     Alibaba-trace substrate
//   - internal/experiments — one runner per table/figure of the paper
//   - internal/replay — the Sec. 5.3 trace replay (Fig. 14 / Table 4),
//     shared by cmd/replay and internal/experiments
//
// The root-level bench_test.go regenerates every experiment as a Go
// benchmark; `cmd/experiments` prints them in paper order. See README.md,
// DESIGN.md and EXPERIMENTS.md.
package delaystage

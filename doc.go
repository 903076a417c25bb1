// Package repro reproduces "VSV: L2-Miss-Driven Variable Supply-Voltage
// Scaling for Low Power" (Li, Cher, Vijaykumar, Roy — MICRO-36, 2003) as a
// complete, from-scratch Go system.
//
// # Paper-to-code map
//
//	Paper section                      Package / artefact
//	-----------------------------      --------------------------------------
//	§3.1 two supply voltages           core.Timing (VDDH/VDDL)
//	§3.2 dV/dt, 12 ns ramp             core.Timing.RampTicks, controller ramps
//	§3.4 clock distribution            core.Timing Down/UpDistTicks, overlap
//	§3.5 don't scale RAM supplies      power.RAMOverheadRatio (eq. 5),
//	                                   power.Config.ScaleRAMs (ablation)
//	§3.6 level-converting latches      power.Params *LatchPerAccess
//	§4.2 down-FSM                      core.downFSM, core.Policy
//	§4.3 half-speed clocking           core.Controller.Divider, sim tick loop
//	§4.4 up-FSM, First-R/Last-R        core.upFSM, core.UpMode
//	§5   Table 1 machine               sim.DefaultConfig (pipeline, cache,
//	                                   bus, mem, branch packages)
//	§5.1 Time-Keeping prefetching      prefetch.TimeKeeping, prefetch.Buffer
//	§5.2 Wattch power + DCG + 66 nJ    power.Model
//	§5.3/Table 2 benchmarks            workload (26 synthetic profiles)
//	§6.1/Figure 4                      experiments.Figure4
//	§6.2/Figure 5                      experiments.Figure5
//	§6.3/Figure 6                      experiments.Figure6
//	§6.4/Figure 7                      experiments.Figure7
//	Figures 2–3 timelines              core controller tests, examples/timeline
//
// # Building machines
//
// Machines are constructed with functional options: sim.NewBench(name,
// opts...) starts from the Table 1 configuration with the benchmark's
// resident working sets pre-warmed, sim.New(src, opts...) runs any
// pipeline.InstSource, and options such as sim.WithVSV, sim.WithTimeKeeping
// and sim.WithWindows layer the paper's mechanisms on top. Invalid
// configurations are reported as errors.
//
// # Campaigns
//
// Package sweep executes batches of (benchmark × configuration) points,
// at most Workers simulations at once per engine and under context
// cancellation, memoizing completed runs under a stable configuration hash
// and returning results in submission order — so every experiment's output
// is byte-identical for any worker count, and points shared between
// experiments (the per-benchmark baselines, most notably) are simulated
// once. Package experiments and
// cmd/experiments run entirely on it; cmd binaries share flag parsing via
// package cliconfig.
//
// # Extensions beyond the paper
//
//   - power leakage model (§1 mentions VDD³–VDD⁴ leakage; power.LeakageParams)
//   - deep-low third level (1.0 V at quarter speed; core.DeepLevel,
//     Policy.EscalateOutstanding)
//   - adaptive down-threshold tuning (core.AdaptiveConfig)
//   - binary trace files (tracefile), time-series recording (trace),
//     CSV export (report), seed-robustness studies (experiments.Robustness)
//
// This file also anchors the repository-level benchmark harness
// (bench_test.go): one testing.B per table and figure, plus ablation and
// extension benches.
package repro

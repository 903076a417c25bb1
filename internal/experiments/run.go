// Package experiments regenerates the paper's tables and figures: Table 2
// (baseline IPC/MR), Figure 4 (VSV with/without FSMs across SPEC2K),
// Figure 5 (down-FSM threshold sweep), Figure 6 (up-FSM threshold sweep vs
// First-R/Last-R), Figure 7 (impact of Time-Keeping prefetching), and the
// §6 summary averages. Each experiment renders the same rows/series the
// paper reports. All fan-out goes through the sweep engine, so experiments
// sharing points (every figure's baselines, for example) simulate them
// once when run against a shared Engine.
package experiments

import (
	"context"
	"sort"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Options scales the experiments.
type Options struct {
	// WarmupInstructions and MeasureInstructions size each run's windows.
	WarmupInstructions  uint64
	MeasureInstructions uint64
	// Parallelism is the worker count (sweep.Workers; 0 means 1) of the
	// engine built when no Engine or Job is supplied. A supplied engine
	// carries its own bound, shared by every artefact and job on it.
	Parallelism int
	// Engine, when non-nil, executes every run of every experiment. Sharing
	// one engine across experiments shares its memoization cache, so
	// repeated points — the common baselines of Table 2 and Figures 4–7 —
	// are simulated exactly once per campaign. Nil runs each experiment on
	// a private engine.
	Engine *sweep.Engine
	// Job, when non-nil, scopes every run to this job handle (which takes
	// precedence over Engine for execution; the handle's engine supplies
	// the shared cache). The campaign service uses one Job per HTTP job so
	// concurrent jobs on the shared engine keep separate progress and
	// stats.
	Job *sweep.Job
	// Context, when non-nil, bounds every run of the campaign: cancelling
	// it aborts in-flight simulations cooperatively through the engine's
	// stop channels. Nil means context.Background().
	Context context.Context
	// ForceSlowTick disables the simulator's event-driven fast-forward for
	// every run (see sim.Config.ForceSlowTick). Results are bit-identical
	// either way; the golden-output gate runs both modes to prove it.
	ForceSlowTick bool
	// ContinueOnError degrades gracefully instead of failing the whole
	// campaign: artefacts whose points failed render as a one-line FAILED
	// annotation in the output stream while every other artefact completes.
	// (Pair it with an Engine built with sweep.ContinueOnError so the
	// engine keeps draining points too.)
	ContinueOnError bool
}

// DefaultOptions returns windows large enough for stable percentages at
// interactive runtimes.
func DefaultOptions() Options {
	return Options{
		WarmupInstructions:  60_000,
		MeasureInstructions: 300_000,
		Parallelism:         4,
	}
}

// BenchConfig returns the Table 1 machine configured for synthetic
// SPEC2K workloads: caches pre-warmed with the benchmarks' resident
// working sets (standing in for the paper's 2-billion-instruction
// fast-forward).
func BenchConfig(o Options) sim.Config {
	cfg := sim.BenchConfig()
	cfg.WarmupInstructions = o.WarmupInstructions
	cfg.MeasureInstructions = o.MeasureInstructions
	cfg.ForceSlowTick = o.ForceSlowTick
	return cfg
}

// RunOne simulates one benchmark on one configuration.
func RunOne(name string, cfg sim.Config) (sim.Results, error) {
	m, err := sim.NewBench(name, sim.WithConfig(cfg))
	if err != nil {
		return sim.Results{}, err
	}
	return m.Run(name), nil
}

// job is one (benchmark, seed, config) simulation in a batch.
type job struct {
	key  string
	name string
	seed uint64
	cfg  sim.Config
}

// runAll executes jobs through the sweep engine and returns results by key.
func runAll(o Options, jobs []job) (map[string]sim.Results, error) {
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	pts := make([]sweep.Point, len(jobs))
	for i, j := range jobs {
		pts[i] = sweep.Point{Key: j.key, Benchmark: j.name, Seed: j.seed, Config: j.cfg}
	}
	if o.Job != nil {
		return o.Job.RunMap(ctx, pts)
	}
	eng := o.Engine
	if eng == nil {
		eng = sweep.New(sweep.Workers(o.Parallelism))
	}
	return eng.RunMap(ctx, pts)
}

// sortByMRDesc orders benchmark names by paper MR descending, the X-axis
// order of Figures 4 and 7.
func sortByMRDesc(names []string) []string {
	out := append([]string(nil), names...)
	sort.SliceStable(out, func(i, j int) bool {
		a, _ := workload.ByName(out[i])
		b, _ := workload.ByName(out[j])
		return a.MRPaper > b.MRPaper
	})
	return out
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// Package repro's benchmark harness: one testing.B per paper artefact.
// Each benchmark regenerates its table or figure at reduced scale (smaller
// instruction windows and, for the all-SPEC2K figures, a representative
// benchmark subset) and reports the headline series values as custom
// metrics. The full-scale regeneration is `go run ./cmd/experiments`.
package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// benchOpts keeps per-iteration cost manageable.
func benchOpts() experiments.Options {
	return experiments.Options{
		WarmupInstructions:  10_000,
		MeasureInstructions: 50_000,
		Parallelism:         8,
	}
}

// benchSubset is a representative slice of Table 2: the extremes of MR and
// ILP plus the middle.
var benchSubset = []string{"mcf", "ammp", "applu", "swim", "perlbmk", "eon"}

func benchCfg() sim.Config {
	cfg := experiments.BenchConfig(benchOpts())
	return cfg
}

func runOne(b *testing.B, name string, cfg sim.Config) sim.Results {
	b.Helper()
	r, err := experiments.RunOne(name, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkTable1Config exercises the configuration path (Table 1).
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.RenderTable1(sim.DefaultConfig()) == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2 regenerates Table 2's rows (baseline + Time-Keeping IPC
// and MR) for the subset.
func BenchmarkTable2(b *testing.B) {
	var ipc, mr float64
	for i := 0; i < b.N; i++ {
		base := benchCfg()
		tk := benchCfg().WithTimeKeeping()
		for _, n := range benchSubset {
			rb := runOne(b, n, base)
			runOne(b, n, tk)
			ipc, mr = rb.IPC, rb.MR
		}
	}
	b.ReportMetric(ipc, "last-IPC")
	b.ReportMetric(mr, "last-MR")
}

// BenchmarkFigure2Timeline measures the high→low transition machinery.
func BenchmarkFigure2Timeline(b *testing.B) {
	tm := core.DefaultTiming()
	for i := 0; i < b.N; i++ {
		ctl := core.New(core.PolicyNoFSM(), tm)
		ctl.BeginTick(0)
		ctl.EndTick(0, core.Observation{MissDetected: true, OutstandingDemand: 1})
		now := int64(1)
		for ctl.Mode() != core.ModeLow {
			ctl.BeginTick(now)
			ctl.EndTick(now, core.Observation{OutstandingDemand: 1})
			now++
		}
		if now != int64(tm.DownTransitionTicks())+1 {
			b.Fatalf("transition took %d ticks", now-1)
		}
	}
}

// BenchmarkFigure3Timeline measures the low→high transition machinery.
func BenchmarkFigure3Timeline(b *testing.B) {
	tm := core.DefaultTiming()
	for i := 0; i < b.N; i++ {
		ctl := core.New(core.PolicyNoFSM(), tm)
		ctl.BeginTick(0)
		ctl.EndTick(0, core.Observation{MissDetected: true, OutstandingDemand: 1})
		now := int64(1)
		for ctl.Mode() != core.ModeLow {
			ctl.BeginTick(now)
			ctl.EndTick(now, core.Observation{OutstandingDemand: 1})
			now++
		}
		ctl.BeginTick(now)
		ctl.EndTick(now, core.Observation{MissReturned: true})
		start := now
		now++
		for ctl.Mode() != core.ModeHigh {
			ctl.BeginTick(now)
			ctl.EndTick(now, core.Observation{Issued: 2})
			now++
		}
		if now-start != int64(tm.UpTransitionTicks())+1 {
			b.Fatalf("up transition took %d ticks", now-start-1)
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4 (VSV with/without FSMs) on the
// subset and reports the MR>4 averages the paper headlines.
func BenchmarkFigure4(b *testing.B) {
	var save, deg float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure4(benchOpts(), benchSubset)
		if err != nil {
			b.Fatal(err)
		}
		var s, d, n float64
		for _, r := range rows {
			if r.MRPaper > 4 {
				s += r.FSM.PowerSavePct
				d += r.FSM.PerfDegPct
				n++
			}
		}
		save, deg = s/n, d/n
	}
	b.ReportMetric(save, "highMR-save-%")
	b.ReportMetric(deg, "highMR-deg-%")
}

// BenchmarkFigure5 regenerates the down-threshold sweep on two benchmarks
// and reports the threshold-0 vs threshold-5 savings spread.
func BenchmarkFigure5(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure5(benchOpts(), []string{"mcf", "swim"}, []int{0, 3, 5})
		if err != nil {
			b.Fatal(err)
		}
		spread = rows[0].Points[0].PowerSavePct - rows[0].Points[2].PowerSavePct
	}
	b.ReportMetric(spread, "th0-th5-save-spread-%")
}

// BenchmarkFigure6 regenerates the up-trigger sweep on two benchmarks and
// reports the Last-R minus First-R savings spread.
func BenchmarkFigure6(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure6(benchOpts(), []string{"mcf", "swim"}, experiments.Figure6Variants())
		if err != nil {
			b.Fatal(err)
		}
		last := len(rows[0].Points) - 1
		spread = rows[0].Points[last].PowerSavePct - rows[0].Points[0].PowerSavePct
	}
	b.ReportMetric(spread, "lastR-firstR-save-spread-%")
}

// BenchmarkFigure7 regenerates the Time-Keeping stress test on the subset
// and reports savings with and without prefetching.
func BenchmarkFigure7(b *testing.B) {
	var noTK, withTK float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure7(benchOpts(), benchSubset)
		if err != nil {
			b.Fatal(err)
		}
		var a, c, n float64
		for _, r := range rows {
			if r.MRPaper > 4 {
				a += r.NoTK.PowerSavePct
				c += r.TK.PowerSavePct
				n++
			}
		}
		noTK, withTK = a/n, c/n
	}
	b.ReportMetric(noTK, "highMR-save-%")
	b.ReportMetric(withTK, "highMR-save-TK-%")
}

// BenchmarkAblationPrefetchTrigger quantifies §4.2's rule: letting
// prefetch misses trigger VSV on a prefetch-heavy workload.
func BenchmarkAblationPrefetchTrigger(b *testing.B) {
	var degNormal, degAblated float64
	for i := 0; i < b.N; i++ {
		base := runOne(b, "applu", benchCfg())
		normal := runOne(b, "applu", benchCfg().WithVSV(core.PolicyFSM()))
		abl := benchCfg().WithVSV(core.PolicyFSM())
		abl.VSV.TriggerOnPrefetch = true
		ablated := runOne(b, "applu", abl)
		degNormal = sim.Comparison{Base: base, VSV: normal}.PerfDegradationPct()
		degAblated = sim.Comparison{Base: base, VSV: ablated}.PerfDegradationPct()
	}
	b.ReportMetric(degNormal, "deg-%")
	b.ReportMetric(degAblated, "deg-ablated-%")
}

// BenchmarkAblationWindow sweeps the FSM monitoring window length (the
// paper fixes it at 10 cycles).
func BenchmarkAblationWindow(b *testing.B) {
	var short, long float64
	for i := 0; i < b.N; i++ {
		base := runOne(b, "ammp", benchCfg())
		for _, w := range []int{5, 20} {
			p := core.PolicyFSM()
			p.DownWindow, p.UpWindow = w, w
			r := runOne(b, "ammp", benchCfg().WithVSV(p))
			c := sim.Comparison{Base: base, VSV: r}
			if w == 5 {
				short = c.PowerSavingsPct()
			} else {
				long = c.PowerSavingsPct()
			}
		}
	}
	b.ReportMetric(short, "save-win5-%")
	b.ReportMetric(long, "save-win20-%")
}

// BenchmarkAblationScaleRAMs quantifies §3.5: scaling the RAM supplies too.
func BenchmarkAblationScaleRAMs(b *testing.B) {
	var normal, scaled float64
	for i := 0; i < b.N; i++ {
		base := runOne(b, "mcf", benchCfg())
		n := runOne(b, "mcf", benchCfg().WithVSV(core.PolicyFSM()))
		abl := benchCfg().WithVSV(core.PolicyFSM())
		abl.Power.ScaleRAMs = true
		s := runOne(b, "mcf", abl)
		normal = sim.Comparison{Base: base, VSV: n}.PowerSavingsPct()
		scaled = sim.Comparison{Base: base, VSV: s}.PowerSavingsPct()
	}
	b.ReportMetric(normal, "save-%")
	b.ReportMetric(scaled, "save-scaledRAMs-%")
}

// BenchmarkExtensionDeepLow compares plain VSV against the deep-low
// escalation extension (a third level: 1.0 V at quarter speed).
func BenchmarkExtensionDeepLow(b *testing.B) {
	var plain, deep float64
	for i := 0; i < b.N; i++ {
		base := runOne(b, "mcf", benchCfg())
		p := runOne(b, "mcf", benchCfg().WithVSV(core.PolicyFSM()))
		dp := core.PolicyFSM()
		dp.EscalateOutstanding = 2
		d := runOne(b, "mcf", benchCfg().WithVSV(dp))
		plain = sim.Comparison{Base: base, VSV: p}.PowerSavingsPct()
		deep = sim.Comparison{Base: base, VSV: d}.PowerSavingsPct()
	}
	b.ReportMetric(plain, "save-%")
	b.ReportMetric(deep, "save-deep-%")
}

// BenchmarkExtensionLeakage quantifies the optional static-power model.
func BenchmarkExtensionLeakage(b *testing.B) {
	var noLeak, leak float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		base := runOne(b, "mcf", cfg)
		v := runOne(b, "mcf", cfg.WithVSV(core.PolicyFSM()))
		noLeak = sim.Comparison{Base: base, VSV: v}.PowerSavingsPct()
		lcfg := benchCfg()
		lcfg.Power.Leakage = power.DefaultLeakageParams()
		lbase := runOne(b, "mcf", lcfg)
		lv := runOne(b, "mcf", lcfg.WithVSV(core.PolicyFSM()))
		leak = sim.Comparison{Base: lbase, VSV: lv}.PowerSavingsPct()
	}
	b.ReportMetric(noLeak, "save-%")
	b.ReportMetric(leak, "save-leakage-%")
}

// BenchmarkExtensionAdaptive compares the static threshold-3 policy against
// the run-time adaptive tuner.
func BenchmarkExtensionAdaptive(b *testing.B) {
	var static, adaptive float64
	for i := 0; i < b.N; i++ {
		base := runOne(b, "mcf", benchCfg())
		s := runOne(b, "mcf", benchCfg().WithVSV(core.PolicyFSM()))
		ap := core.PolicyFSM()
		ap.Adaptive = core.DefaultAdaptiveConfig()
		a := runOne(b, "mcf", benchCfg().WithVSV(ap))
		static = sim.Comparison{Base: base, VSV: s}.PowerSavingsPct()
		adaptive = sim.Comparison{Base: base, VSV: a}.PowerSavingsPct()
	}
	b.ReportMetric(static, "save-%")
	b.ReportMetric(adaptive, "save-adaptive-%")
}

// stallChase is a miss-dominated dependent-load chain (the motivating
// pattern from examples/pointer_chase, at its most hostile setting): every
// iteration chases a pointer through a 64 MB footprint with only two
// dependent fillers, so the pipeline spends almost every cycle fully
// stalled behind an L2 miss — the case the event-driven fast-forward in
// internal/sim targets.
type stallChase struct {
	idx uint64
	pos int
}

const stallChaseFootprint = 64 << 20

func (c *stallChase) Next(in *isa.Inst) {
	pc := uint64(0x40_0000) + uint64(c.pos)*isa.InstBytes
	switch {
	case c.pos == 0:
		c.idx = (c.idx + 0x9e3779b97f4a7c15) & (stallChaseFootprint/32 - 1)
		*in = isa.Inst{PC: pc, Op: isa.OpLoad, Src1: 8, Src2: isa.RegNone,
			Dst: 8, Addr: workload.ColdBase + c.idx*32}
	case c.pos <= 2:
		*in = isa.Inst{PC: pc, Op: isa.OpIntALU, Src1: 8, Src2: 10,
			Dst: isa.Reg(16 + c.pos%8)}
	default:
		*in = isa.Inst{PC: pc, Op: isa.OpBranch, Src1: 16, Src2: isa.RegNone,
			Dst: isa.RegNone, Taken: true, Target: 0x40_0000}
		c.pos = -1
	}
	c.pos++
}

// BenchmarkStallSkipPointerChase measures the event-driven stall skip on a
// miss-dominated workload: the fastforward/slowtick ratio is the speedup,
// and the two sub-benchmarks produce bit-identical physics (held by
// TestFastForwardDifferential in internal/sim).
func BenchmarkStallSkipPointerChase(b *testing.B) {
	run := func(b *testing.B, opts ...sim.Option) {
		b.Helper()
		opts = append([]sim.Option{sim.WithWindows(5_000, 50_000)}, opts...)
		var insts uint64
		for i := 0; i < b.N; i++ {
			m, err := sim.New(&stallChase{}, opts...)
			if err != nil {
				b.Fatal(err)
			}
			insts += m.Run("chase").Instructions
		}
		b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
	}
	b.Run("fastforward", func(b *testing.B) { run(b) })
	b.Run("vsv", func(b *testing.B) { run(b, sim.WithVSV(core.PolicyFSM())) })
	b.Run("slowtick", func(b *testing.B) { run(b, sim.WithForceSlowTick()) })
}

// campaignGrid is the throughput gate's point grid: the shape of a Figure
// 4–7 sweep (2 benchmarks × (baseline, VSV, VSV+TK) × 8 workload seeds,
// one shared machine geometry) at micro scale. The windows are deliberately
// tiny and the prewarm replay is dropped so per-point orchestration cost —
// machine construction versus in-place arena recycle — dominates the
// measurement; that overhead is what the gate pins, not simulation speed
// (BenchmarkSimulatorThroughput covers that). Both the fresh and reuse
// paths replay prewarm identically, so including it would only dilute the
// ratio with work common to both.
func campaignGrid() []sweep.Point {
	micro := func(cfg sim.Config) sim.Config {
		cfg.WarmupInstructions = 0
		cfg.MeasureInstructions = 100
		cfg.Prewarm = nil
		// Quadruple the cache geometry: a fresh build pays allocation and
		// first-touch page faults on these arrays every point, while an
		// arena reset reuses the already-faulted backing in place, so the
		// larger footprint keeps the gate construction-dominated.
		cfg.IL1.SizeBytes *= 4
		cfg.DL1.SizeBytes *= 4
		cfg.L2.SizeBytes *= 4
		return cfg
	}
	base := micro(benchCfg())
	vsv := micro(benchCfg().WithVSV(core.PolicyFSM()))
	tk := micro(benchCfg().WithVSV(core.PolicyFSM()).WithTimeKeeping())
	var pts []sweep.Point
	for _, bench := range []string{"gcc", "eon"} {
		for ci, cfg := range []sim.Config{base, vsv, tk} {
			for seed := uint64(0); seed < 8; seed++ {
				pts = append(pts, sweep.Point{
					Key:       fmt.Sprintf("%s/c%d/s%d", bench, ci, seed),
					Benchmark: bench,
					Seed:      seed,
					Config:    cfg,
				})
			}
		}
	}
	return pts
}

// BenchmarkCampaignThroughput measures campaign throughput in executed
// runs per second over the representative grid. "fresh" is the no-reuse
// baseline (a machine constructed per point — the engine's behaviour
// before worker arenas); "reuse" recycles one arena via ResetBench, the
// steady-state worker path; "engine" drives the full sweep engine
// (memoization disabled so every point executes) and also reports its
// measured arena-reuse rate. The reuse/fresh ratio is the arena payoff;
// scripts/bench_compare.sh gates runs/sec against the previous report.
func BenchmarkCampaignThroughput(b *testing.B) {
	pts := campaignGrid()
	runsPerSec := func(b *testing.B, runs int) {
		b.ReportMetric(float64(runs)/b.Elapsed().Seconds(), "runs/sec")
	}
	b.Run("fresh", func(b *testing.B) {
		runs := 0
		for i := 0; i < b.N; i++ {
			for _, p := range pts {
				m, err := sim.NewBench(p.Benchmark,
					sim.WithConfig(p.Config), sim.WithSeed(p.Seed))
				if err != nil {
					b.Fatal(err)
				}
				m.Run(p.Benchmark)
				runs++
			}
		}
		runsPerSec(b, runs)
	})
	b.Run("reuse", func(b *testing.B) {
		var m *sim.Machine
		runs := 0
		for i := 0; i < b.N; i++ {
			for _, p := range pts {
				opts := []sim.Option{sim.WithConfig(p.Config), sim.WithSeed(p.Seed)}
				if m == nil {
					var err error
					if m, err = sim.NewBench(p.Benchmark, opts...); err != nil {
						b.Fatal(err)
					}
				} else if err := m.ResetBench(p.Benchmark, opts...); err != nil {
					b.Fatal(err)
				}
				m.Run(p.Benchmark)
				runs++
			}
		}
		runsPerSec(b, runs)
	})
	b.Run("engine", func(b *testing.B) {
		eng := sweep.New(sweep.Workers(benchOpts().Parallelism), sweep.WithoutCache())
		// One untimed campaign warms the engine's arenas (construction plus
		// the first touch of the enlarged cache backings), so the timed
		// region measures the engine's steady-state dispatch throughput —
		// cold construction cost is the "fresh" sub-benchmark's subject.
		if _, err := eng.Run(context.Background(), pts); err != nil {
			b.Fatal(err)
		}
		warm := eng.Stats().Ran
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(context.Background(), pts); err != nil {
				b.Fatal(err)
			}
		}
		st := eng.Stats()
		runsPerSec(b, st.Ran-warm)
		b.ReportMetric(st.ReuseRate(), "reuse-rate")
	})
}

// BenchmarkSimulatorThroughput measures raw simulation speed.
func BenchmarkSimulatorThroughput(b *testing.B) {
	p, _ := workload.ByName("gcc")
	cfg := benchCfg()
	cfg.MeasureInstructions = 100_000
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		m := sim.NewMachine(cfg, workload.NewGenerator(p))
		r := m.Run("gcc")
		insts += r.Instructions
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkWorkloadGeneration measures the instruction synthesis rate.
func BenchmarkWorkloadGeneration(b *testing.B) {
	p, _ := workload.ByName("swim")
	g := workload.NewGenerator(p)
	var in isa.Inst
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next(&in)
	}
}

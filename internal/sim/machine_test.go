package sim

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/workload"
)

// testConfig returns a small-window Table 1 configuration with the
// workloads' resident sets pre-warmed.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.WarmupInstructions = 10_000
	cfg.MeasureInstructions = 40_000
	cfg.Prewarm = []PrewarmRange{
		{Base: workload.HotBase, Bytes: workload.HotBytes, IntoL1: true},
		{Base: workload.WarmBase, Bytes: workload.WarmBytes},
	}
	return cfg
}

func runBench(t *testing.T, name string, cfg Config) Results {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return NewMachine(cfg, workload.NewGenerator(p)).Run(name)
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MeasureInstructions = 0
	if cfg.Validate() == nil {
		t.Error("zero measurement window accepted")
	}
	cfg = DefaultConfig()
	cfg.IL1.BlockBytes = 64
	if cfg.Validate() == nil {
		t.Error("mismatched block sizes accepted")
	}
	cfg = DefaultConfig()
	cfg.Bus.Occupancy = 0
	if cfg.Validate() == nil {
		t.Error("zero bus occupancy accepted")
	}
	cfg = DefaultConfig()
	bad := cfg.WithVSV(core.Policy{Up: core.UpMode(9)})
	if bad.Validate() == nil {
		t.Error("invalid VSV policy accepted")
	}
}

// TestConfigValidatePrewarm checks that a prewarm range whose end, or
// whose block walk, passes 2^64-1 is rejected by name instead of wrapping
// the walk.
func TestConfigValidatePrewarm(t *testing.T) {
	const top = ^uint64(0)
	for _, tc := range []struct {
		name string
		pr   PrewarmRange
		ok   bool
	}{
		{"bench-warm", PrewarmRange{Base: workload.WarmBase, Bytes: workload.WarmBytes}, true},
		{"empty", PrewarmRange{Base: top, Bytes: 0}, true},
		{"below-top", PrewarmRange{Base: top - 95, Bytes: 64}, true},
		{"walk-wraps", PrewarmRange{Base: top - 47, Bytes: 40}, false},
		{"ends-at-2^64", PrewarmRange{Base: top - 63, Bytes: 64}, false},
		{"end-overflows", PrewarmRange{Base: 1 << 63, Bytes: 1 << 63}, false},
		{"huge", PrewarmRange{Base: 0, Bytes: top}, false},
	} {
		cfg := DefaultConfig()
		cfg.Prewarm = []PrewarmRange{{Base: workload.HotBase, Bytes: workload.HotBytes}, tc.pr}
		err := cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate(%+v) = %v, want ok=%v", tc.name, tc.pr, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "prewarm range 1") {
			t.Errorf("%s: error %q does not name the range", tc.name, err)
		}
	}
}

func TestTable1Defaults(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Pipeline.IssueWidth != 8 || cfg.Pipeline.RUUSize != 128 || cfg.Pipeline.LSQSize != 64 {
		t.Error("core geometry differs from Table 1")
	}
	if cfg.IL1.SizeBytes != 64<<10 || cfg.IL1.Assoc != 2 || cfg.IL1.HitLatency != 2 {
		t.Error("L1 differs from Table 1")
	}
	if cfg.L2.SizeBytes != 2<<20 || cfg.L2.Assoc != 8 || cfg.L2.HitLatency != 12 {
		t.Error("L2 differs from Table 1")
	}
	if cfg.IL1.MSHREntries != 32 || cfg.DL1.MSHREntries != 32 || cfg.L2.MSHREntries != 64 {
		t.Error("MSHRs differ from Table 1")
	}
	if cfg.Mem.LatencyTicks != 100 || cfg.Bus.Occupancy != 4 || cfg.Bus.WidthBytes != 32 {
		t.Error("memory system differs from Table 1")
	}
}

func TestBaselineDeterminism(t *testing.T) {
	a := runBench(t, "gcc", testConfig())
	b := runBench(t, "gcc", testConfig())
	if a.Ticks != b.Ticks || a.EnergyNJ != b.EnergyNJ || a.MR != b.MR {
		t.Fatalf("baseline runs diverge: %+v vs %+v", a, b)
	}
}

func TestVSVDeterminism(t *testing.T) {
	cfg := testConfig().WithVSV(core.PolicyFSM())
	a := runBench(t, "mcf", cfg)
	b := runBench(t, "mcf", cfg)
	if a.Ticks != b.Ticks || a.EnergyNJ != b.EnergyNJ {
		t.Fatalf("VSV runs diverge: %d/%v vs %d/%v", a.Ticks, a.EnergyNJ, b.Ticks, b.EnergyNJ)
	}
}

func TestBaselineMachineHasNoController(t *testing.T) {
	p, _ := workload.ByName("gcc")
	m := NewMachine(testConfig(), workload.NewGenerator(p))
	if m.Controller() != nil {
		t.Fatal("baseline machine has a VSV controller")
	}
	r := m.Run("gcc")
	if r.LowFrac != 0 || r.Transitions != 0 {
		t.Fatalf("baseline reports VSV activity: %+v", r)
	}
}

// TestVSVHeadlineOnMcf checks the paper's flagship case: a pointer-chasing,
// high-MR workload saves a large fraction of power at a small slowdown.
func TestVSVHeadlineOnMcf(t *testing.T) {
	base := runBench(t, "mcf", testConfig())
	vsv := runBench(t, "mcf", testConfig().WithVSV(core.PolicyFSM()))
	c := Comparison{Base: base, VSV: vsv}
	if save := c.PowerSavingsPct(); save < 25 {
		t.Errorf("mcf power savings = %.1f%%, want > 25%%", save)
	}
	if deg := c.PerfDegradationPct(); deg > 6 {
		t.Errorf("mcf degradation = %.1f%%, want < 6%%", deg)
	}
	if vsv.LowFrac < 0.5 {
		t.Errorf("mcf low-mode residency = %.2f, want > 0.5", vsv.LowFrac)
	}
}

// TestFSMsProtectHighILP reproduces §6.1's second observation: on a
// high-ILP streaming workload the FSMs trade away power savings to avoid
// the performance loss the no-FSM policy incurs.
func TestFSMsProtectHighILP(t *testing.T) {
	base := runBench(t, "applu", testConfig())
	noFSM := Comparison{Base: base, VSV: runBench(t, "applu", testConfig().WithVSV(core.PolicyNoFSM()))}
	fsm := Comparison{Base: base, VSV: runBench(t, "applu", testConfig().WithVSV(core.PolicyFSM()))}
	if fsm.PerfDegradationPct() >= noFSM.PerfDegradationPct() {
		t.Errorf("FSMs did not reduce degradation: %.1f%% vs %.1f%%",
			fsm.PerfDegradationPct(), noFSM.PerfDegradationPct())
	}
	if fsm.VSV.LowFrac >= noFSM.VSV.LowFrac {
		t.Errorf("FSMs did not reduce low-mode residency: %.2f vs %.2f",
			fsm.VSV.LowFrac, noFSM.VSV.LowFrac)
	}
}

// TestLowMRBenchmarkUnaffected reproduces §6.1's third observation:
// benchmarks with (near-)zero MR neither save power nor degrade.
func TestLowMRBenchmarkUnaffected(t *testing.T) {
	base := runBench(t, "eon", testConfig())
	vsv := runBench(t, "eon", testConfig().WithVSV(core.PolicyFSM()))
	c := Comparison{Base: base, VSV: vsv}
	if s := c.PowerSavingsPct(); s > 3 || s < -3 {
		t.Errorf("eon power delta = %.1f%%, want ~0", s)
	}
	if d := c.PerfDegradationPct(); d > 1.5 || d < -1.5 {
		t.Errorf("eon perf delta = %.1f%%, want ~0", d)
	}
	if vsv.LowFrac > 0.02 {
		t.Errorf("eon low-mode residency = %.2f, want ~0", vsv.LowFrac)
	}
}

func TestPrewarmReducesColdMisses(t *testing.T) {
	cold := testConfig()
	cold.Prewarm = nil
	warm := testConfig()
	mrCold := runBench(t, "gcc", cold).MR
	mrWarm := runBench(t, "gcc", warm).MR
	if mrWarm >= mrCold {
		t.Fatalf("prewarm did not reduce MR: %.2f vs %.2f", mrWarm, mrCold)
	}
}

func TestTimeKeepingReducesStreamMR(t *testing.T) {
	base := runBench(t, "lucas", testConfig())
	tk := runBench(t, "lucas", testConfig().WithTimeKeeping())
	if tk.MR >= base.MR {
		t.Fatalf("Time-Keeping did not reduce lucas MR: %.2f vs %.2f", tk.MR, base.MR)
	}
}

// TestScaleRAMsAblation checks §3.5's argument numerically: also scaling
// the RAM structures' supplies costs more in transition energy than it
// saves, so total savings do not improve.
func TestScaleRAMsAblation(t *testing.T) {
	base := runBench(t, "mcf", testConfig())
	normal := Comparison{Base: base, VSV: runBench(t, "mcf", testConfig().WithVSV(core.PolicyFSM()))}
	abl := testConfig().WithVSV(core.PolicyFSM())
	abl.Power.ScaleRAMs = true
	scaled := Comparison{Base: base, VSV: runBench(t, "mcf", abl)}
	// RAM scaling does save some extra array power in low mode, but the
	// per-ramp penalty must prevent any significant improvement.
	if scaled.PowerSavingsPct() > normal.PowerSavingsPct()+3 {
		t.Fatalf("RAM scaling improved savings substantially (%.1f%% vs %.1f%%), contradicting §3.5",
			scaled.PowerSavingsPct(), normal.PowerSavingsPct())
	}
}

// TestDeepLowExtension checks the escalation extension end to end: on the
// memory-bound chase workload it must spend time in deep mode and save at
// least as much power as plain VSV without hurting performance much more.
func TestDeepLowExtension(t *testing.T) {
	base := runBench(t, "mcf", testConfig())
	plain := Comparison{Base: base, VSV: runBench(t, "mcf", testConfig().WithVSV(core.PolicyFSM()))}
	deepPolicy := core.PolicyFSM()
	deepPolicy.EscalateOutstanding = 2
	deepCfg := testConfig().WithVSV(deepPolicy)
	deepRun := runBench(t, "mcf", deepCfg)
	deep := Comparison{Base: base, VSV: deepRun}
	if deepRun.ControllerStats.DeepTransitions == 0 {
		t.Fatal("extension never escalated on mcf (multiple outstanding chase misses)")
	}
	if deep.PowerSavingsPct() < plain.PowerSavingsPct() {
		t.Errorf("deep extension saves less than plain VSV: %.1f%% vs %.1f%%",
			deep.PowerSavingsPct(), plain.PowerSavingsPct())
	}
	if deep.PerfDegradationPct() > plain.PerfDegradationPct()+5 {
		t.Errorf("deep extension degradation too high: %.1f%% vs %.1f%%",
			deep.PerfDegradationPct(), plain.PerfDegradationPct())
	}
}

// TestLeakageExtensionEndToEnd checks the static-power extension: leakage
// flows every tick and only voltage scaling (not clock gating) reduces it,
// so the *scaled domain's* leakage must increase the absolute power VSV
// saves, while fixed-domain leakage merely dilutes the percentage.
func TestLeakageExtensionEndToEnd(t *testing.T) {
	mk := func(scaledLeak, fixedLeak float64) Comparison {
		cfg := testConfig()
		cfg.Power.Leakage = power.LeakageParams{
			Enabled:       scaledLeak > 0 || fixedLeak > 0,
			ScaledPerTick: scaledLeak,
			FixedPerTick:  fixedLeak,
			Exponent:      3,
		}
		base := runBench(t, "mcf", cfg)
		vsv := runBench(t, "mcf", cfg.WithVSV(core.PolicyFSM()))
		return Comparison{Base: base, VSV: vsv}
	}
	noLeak := mk(0, 0)
	scaledOnly := mk(1.5, 0)
	// Scaled-domain leakage: VSV cuts it by VDD³ at half... every tick, so
	// both the absolute watts saved and the percentage must rise.
	savedW := func(c Comparison) float64 { return c.Base.AvgPowerW - c.VSV.AvgPowerW }
	if savedW(scaledOnly) <= savedW(noLeak) {
		t.Errorf("scaled leakage did not increase absolute savings: %.2fW vs %.2fW",
			savedW(scaledOnly), savedW(noLeak))
	}
	if scaledOnly.PowerSavingsPct() <= noLeak.PowerSavingsPct() {
		t.Errorf("scaled leakage did not increase savings pct: %.1f%% vs %.1f%%",
			scaledOnly.PowerSavingsPct(), noLeak.PowerSavingsPct())
	}
	// Fixed-domain leakage is untouchable by VSV: same absolute savings,
	// lower percentage.
	fixedOnly := mk(0, 1.5)
	if fixedOnly.PowerSavingsPct() >= noLeak.PowerSavingsPct() {
		t.Errorf("fixed leakage should dilute the percentage: %.1f%% vs %.1f%%",
			fixedOnly.PowerSavingsPct(), noLeak.PowerSavingsPct())
	}
}

// TestSelfCheckCleanOnAllPaths runs the invariant checker over the main
// machine variants; any violation panics.
func TestSelfCheckCleanOnAllPaths(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"baseline", testConfig()},
		{"vsv", testConfig().WithVSV(core.PolicyFSM())},
		{"vsv-nofsm", testConfig().WithVSV(core.PolicyNoFSM())},
		{"vsv-tk", testConfig().WithTimeKeeping().WithVSV(core.PolicyFSM())},
		{"deep", func() Config {
			p := core.PolicyFSM()
			p.EscalateOutstanding = 2
			return testConfig().WithVSV(p)
		}()},
	} {
		cfg := tc.cfg
		cfg.SelfCheck = true
		cfg.MeasureInstructions = 20_000
		for _, bench := range []string{"mcf", "applu"} {
			r := runBench(t, bench, cfg)
			if r.Instructions == 0 {
				t.Fatalf("%s/%s: no instructions", tc.name, bench)
			}
		}
	}
}

// TestPrefetchTriggerAblation checks §4.2's rule end to end: letting
// prefetch misses trigger VSV must increase degradation on a
// prefetch-heavy workload without buying meaningful extra savings.
func TestPrefetchTriggerAblation(t *testing.T) {
	base := runBench(t, "applu", testConfig())
	normal := Comparison{Base: base, VSV: runBench(t, "applu", testConfig().WithVSV(core.PolicyFSM()))}
	abl := testConfig().WithVSV(core.PolicyFSM())
	abl.VSV.TriggerOnPrefetch = true
	ablated := Comparison{Base: base, VSV: runBench(t, "applu", abl)}
	if ablated.PerfDegradationPct() <= normal.PerfDegradationPct() {
		t.Errorf("ablation did not hurt performance: %.2f%% vs %.2f%%",
			ablated.PerfDegradationPct(), normal.PerfDegradationPct())
	}
}

func TestTraceRecorderWiring(t *testing.T) {
	cfg := testConfig().WithVSV(core.PolicyFSM())
	cfg.TraceInterval = 500
	cfg.TraceSamples = 64
	p, _ := workload.ByName("mcf")
	m := NewMachine(cfg, workload.NewGenerator(p))
	r := m.Run("mcf")
	rec := m.Recorder()
	if rec == nil {
		t.Fatal("recorder not attached")
	}
	samples := rec.Samples()
	if len(samples) == 0 {
		t.Fatal("no samples recorded")
	}
	// On mcf the sawtooth must be visible: some samples in low mode at
	// ~VDDL, and the series must cover only the measurement window.
	lows := 0
	for _, s := range samples {
		if s.VDD < 1.3 {
			lows++
		}
		if s.AvgPowerW <= 0 {
			t.Fatalf("non-positive power sample: %+v", s)
		}
	}
	if lows == 0 {
		t.Fatal("no low-voltage samples on a 98%%-low workload")
	}
	if rec.CSV() == "" || rec.Sparkline() == "" {
		t.Fatal("render output empty")
	}
	_ = r
}

func TestNoRecorderByDefault(t *testing.T) {
	p, _ := workload.ByName("eon")
	m := NewMachine(testConfig(), workload.NewGenerator(p))
	if m.Recorder() != nil {
		t.Fatal("recorder attached without TraceInterval")
	}
}

// TestAdaptiveExtensionEndToEnd checks that the run-time threshold tuner
// operates and keeps results in the static policy's ballpark.
func TestAdaptiveExtensionEndToEnd(t *testing.T) {
	base := runBench(t, "mcf", testConfig())
	static := Comparison{Base: base, VSV: runBench(t, "mcf", testConfig().WithVSV(core.PolicyFSM()))}
	ap := core.PolicyFSM()
	ap.Adaptive = core.DefaultAdaptiveConfig()
	run := runBench(t, "mcf", testConfig().WithVSV(ap))
	adaptive := Comparison{Base: base, VSV: run}
	// The tuner must be alive on a transition-heavy workload...
	if run.ControllerStats.AdaptiveAdjusts == 0 && run.ControllerStats.DownTransitions > 50 {
		t.Log("note: adaptive tuner made no adjustments (threshold already optimal)")
	}
	// ...and must not wreck either axis relative to the static policy.
	if adaptive.PowerSavingsPct() < static.PowerSavingsPct()-10 {
		t.Errorf("adaptive savings collapsed: %.1f%% vs %.1f%%",
			adaptive.PowerSavingsPct(), static.PowerSavingsPct())
	}
	if adaptive.PerfDegradationPct() > static.PerfDegradationPct()+3 {
		t.Errorf("adaptive degradation exploded: %.1f%% vs %.1f%%",
			adaptive.PerfDegradationPct(), static.PerfDegradationPct())
	}
}

func TestVSVControllerWiring(t *testing.T) {
	p, _ := workload.ByName("ammp")
	m := NewMachine(testConfig().WithVSV(core.PolicyFSM()), workload.NewGenerator(p))
	r := m.Run("ammp")
	cs := r.ControllerStats
	if cs.DownTransitions == 0 || cs.UpTransitions == 0 {
		t.Fatalf("no transitions on a high-MR workload: %+v", cs)
	}
	// At most one transition may still be in its distribution phase (ramp
	// not yet begun) when the measurement window closes.
	total := cs.DownTransitions + cs.UpTransitions
	if cs.Ramps != total && cs.Ramps != total-1 {
		t.Fatalf("ramps %d vs transitions %d+%d", cs.Ramps, cs.DownTransitions, cs.UpTransitions)
	}
	if cs.DownFSMArmed == 0 {
		t.Fatal("down-FSM never armed despite demand misses")
	}
}

func TestRampEnergyCharged(t *testing.T) {
	p, _ := workload.ByName("ammp")
	m := NewMachine(testConfig().WithVSV(core.PolicyFSM()), workload.NewGenerator(p))
	r := m.Run("ammp")
	if r.Breakdown["ramp"] <= 0 {
		t.Fatal("ramp energy missing from the breakdown")
	}
}

func TestMRConsistentAcrossPolicies(t *testing.T) {
	// The instruction stream is identical, so demand MR must be close
	// between baseline and VSV (timing shifts change prefetch timeliness
	// slightly, nothing more).
	base := runBench(t, "art", testConfig())
	vsv := runBench(t, "art", testConfig().WithVSV(core.PolicyFSM()))
	if vsv.MR < base.MR*0.7 || vsv.MR > base.MR*1.3 {
		t.Fatalf("MR shifted too much under VSV: %.2f vs %.2f", vsv.MR, base.MR)
	}
}

func TestComparisonMath(t *testing.T) {
	c := Comparison{
		Base: Results{Ticks: 1000, AvgPowerW: 10, EnergyNJ: 10000},
		VSV:  Results{Ticks: 1100, AvgPowerW: 8, EnergyNJ: 8800},
	}
	if d := c.PerfDegradationPct(); d < 9.99 || d > 10.01 {
		t.Errorf("degradation = %v, want 10", d)
	}
	if s := c.PowerSavingsPct(); s < 19.99 || s > 20.01 {
		t.Errorf("savings = %v, want 20", s)
	}
	if e := c.EnergySavingsPct(); e < 11.99 || e > 12.01 {
		t.Errorf("energy savings = %v, want 12", e)
	}
	var zero Comparison
	if zero.PerfDegradationPct() != 0 || zero.PowerSavingsPct() != 0 || zero.EnergySavingsPct() != 0 {
		t.Error("zero comparison not zero")
	}
}

func TestResultsString(t *testing.T) {
	r := Results{Benchmark: "mcf", IPC: 0.29, MR: 67.4, AvgPowerW: 8.2}
	if s := r.String(); s == "" {
		t.Fatal("empty summary")
	}
	r.Transitions = 5
	if s := r.String(); s == "" {
		t.Fatal("empty summary with transitions")
	}
}

func TestIPCUsesFullSpeedCycles(t *testing.T) {
	// Table 2 defines IPC per full-speed clock cycle; a VSV run spending
	// time at half speed must therefore report lower IPC than baseline on
	// a chase workload, and Ticks must exceed the baseline's.
	base := runBench(t, "ammp", testConfig())
	vsv := runBench(t, "ammp", testConfig().WithVSV(core.PolicyNoFSM()))
	if vsv.Ticks <= base.Ticks {
		t.Fatalf("VSV not slower in wall clock: %d vs %d", vsv.Ticks, base.Ticks)
	}
	if vsv.IPC >= base.IPC {
		t.Fatalf("VSV IPC not lower: %v vs %v", vsv.IPC, base.IPC)
	}
}

func TestNewMachinePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMachine with invalid config did not panic")
		}
	}()
	p, _ := workload.ByName("gcc")
	NewMachine(Config{}, workload.NewGenerator(p))
}

func TestStatsExposed(t *testing.T) {
	p, _ := workload.ByName("mcf")
	m := NewMachine(testConfig(), workload.NewGenerator(p))
	m.Run("mcf")
	if m.Stats().DemandL2Misses == 0 || m.Stats().L2Accesses == 0 {
		t.Fatalf("machine stats empty: %+v", m.Stats())
	}
	il1, dl1, l2 := m.Caches()
	if il1 == nil || dl1 == nil || l2 == nil {
		t.Fatal("caches not exposed")
	}
	if m.Pipeline().Stats().Committed == 0 {
		t.Fatal("pipeline stats empty")
	}
	if m.Power().TotalEnergy() <= 0 {
		t.Fatal("power model empty")
	}
}

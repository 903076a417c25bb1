package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/workload"
)

// The arena-reuse differential: a machine recycled with Reset/ResetBench
// must be indistinguishable from a freshly constructed one — bit-identical
// Results, machine stats, trace samples and fault logs — across a
// randomized matrix of configurations, with the event-driven fast-forward
// on and off, and with and without fault plans. Construction delegates to
// Reset, so divergence here means some per-run state leaked through a
// subsystem's in-place reset.

// resetPoint is one cell of the differential matrix.
type resetPoint struct {
	bench    string
	seed     uint64
	vsv      bool
	tk       bool
	traceRec bool
	slowTick bool
	faulted  bool
}

func (p resetPoint) name() string {
	return fmt.Sprintf("%s/seed%d/vsv=%v/tk=%v/trace=%v/slow=%v/fault=%v",
		p.bench, p.seed, p.vsv, p.tk, p.traceRec, p.slowTick, p.faulted)
}

func (p resetPoint) config() Config {
	cfg := testConfig()
	cfg.WarmupInstructions = 2_000
	cfg.MeasureInstructions = 8_000
	if p.vsv {
		cfg = cfg.WithVSV(core.PolicyFSM())
	}
	if p.tk {
		cfg = cfg.WithTimeKeeping()
	}
	if p.traceRec {
		cfg.TraceInterval = 500
		cfg.TraceSamples = 64
	}
	cfg.ForceSlowTick = p.slowTick
	if p.faulted {
		cfg.Faults = &faults.Plan{Seed: 0xfa17, Specs: []faults.Spec{
			{Kind: faults.L2Delay, Period: 7, MaxDelay: 24},
			{Kind: faults.SpuriousArm, Period: 900, Duration: 3},
		}}
	}
	return cfg
}

// resetDiffMatrix returns a deterministic pseudo-random sample of the
// configuration space, always including the corner cells (everything off,
// everything on).
func resetDiffMatrix() []resetPoint {
	benches := []string{"mcf", "gcc", "art"}
	pts := []resetPoint{
		{bench: "gcc", seed: 0},
		{bench: "mcf", seed: 1, vsv: true, tk: true, traceRec: true, slowTick: true, faulted: true},
	}
	r := rand.New(rand.NewSource(0x5e5e7))
	for i := 0; i < 10; i++ {
		pts = append(pts, resetPoint{
			bench:    benches[r.Intn(len(benches))],
			seed:     uint64(r.Intn(4)),
			vsv:      r.Intn(2) == 1,
			tk:       r.Intn(2) == 1,
			traceRec: r.Intn(2) == 1,
			slowTick: r.Intn(2) == 1,
			faulted:  r.Intn(2) == 1,
		})
	}
	return pts
}

// observeRun executes one measurement on m and captures every observable:
// results, machine stats, recorder series and the fault log. A structured
// failure is converted to a value so the matrix can include failing points.
func observeRun(m *Machine, bench string) (out faultOutcome, samples []string) {
	defer func() {
		if m.rec != nil {
			samples = append(samples, m.rec.CSV())
		}
		if m.inj != nil {
			out.injections = m.inj.Injections()
			out.faultLog = m.inj.Recent()
		}
		out.stats = m.Stats()
		if r := recover(); r != nil {
			ce, ok := r.(*CheckError)
			if !ok {
				panic(r)
			}
			out.err = ce
		}
	}()
	out.res = m.Run(bench)
	return
}

func runPointFresh(t *testing.T, p resetPoint) (faultOutcome, []string) {
	t.Helper()
	prof, err := workload.ByName(p.bench)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(workload.NewGeneratorSeed(prof, p.seed), WithConfig(p.config()))
	if err != nil {
		t.Fatal(err)
	}
	return observeRun(m, p.bench)
}

func runPointReused(t *testing.T, m *Machine, p resetPoint) (faultOutcome, []string) {
	t.Helper()
	prof, err := workload.ByName(p.bench)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Reset(p.config(), workload.NewGeneratorSeed(prof, p.seed)); err != nil {
		t.Fatal(err)
	}
	return observeRun(m, p.bench)
}

func diffOutcomes(t *testing.T, p resetPoint, fresh, reused faultOutcome, freshS, reusedS []string) {
	t.Helper()
	if !reflect.DeepEqual(fresh.res, reused.res) {
		t.Errorf("%s: results diverge\nfresh : %+v\nreused: %+v", p.name(), fresh.res, reused.res)
	}
	if fresh.stats != reused.stats {
		t.Errorf("%s: machine stats diverge\nfresh : %+v\nreused: %+v", p.name(), fresh.stats, reused.stats)
	}
	if fresh.injections != reused.injections || !reflect.DeepEqual(fresh.faultLog, reused.faultLog) {
		t.Errorf("%s: fault logs diverge (%d vs %d injections)",
			p.name(), fresh.injections, reused.injections)
	}
	if !reflect.DeepEqual(freshS, reusedS) {
		t.Errorf("%s: trace series diverge\nfresh : %v\nreused: %v", p.name(), freshS, reusedS)
	}
	if (fresh.err == nil) != (reused.err == nil) {
		t.Errorf("%s: failure divergence: fresh=%v reused=%v", p.name(), fresh.err, reused.err)
	} else if fresh.err != nil && fresh.err.Error() != reused.err.Error() {
		t.Errorf("%s: failure mismatch: fresh=%v reused=%v", p.name(), fresh.err, reused.err)
	}
}

// TestResetMatchesFresh drives one machine through the whole matrix via
// Reset, comparing every point against a freshly built machine. The reused
// machine crosses configuration shapes (VSV attach/detach, TK attach/detach,
// recorder on/off, fault plans come and go), so any state that survives a
// reset shows up as divergence.
func TestResetMatchesFresh(t *testing.T) {
	pts := resetDiffMatrix()
	var reused *Machine
	for _, p := range pts {
		p := p
		t.Run(p.name(), func(t *testing.T) {
			fresh, freshS := runPointFresh(t, p)
			if reused == nil {
				prof, err := workload.ByName(p.bench)
				if err != nil {
					t.Fatal(err)
				}
				reused, err = New(workload.NewGeneratorSeed(prof, p.seed), WithConfig(p.config()))
				if err != nil {
					t.Fatal(err)
				}
				ro, rs := observeRun(reused, p.bench)
				diffOutcomes(t, p, fresh, ro, freshS, rs)
				return
			}
			ro, rs := runPointReused(t, reused, p)
			diffOutcomes(t, p, fresh, ro, freshS, rs)
		})
	}
}

// TestResetAfterAbort pins the sweep engine's recovery path: a run aborted
// mid-flight (closed stop channel) leaves the machine in an arbitrary
// mid-tick state, and the next Reset must still reproduce a fresh machine
// bit for bit.
func TestResetAfterAbort(t *testing.T) {
	p := resetPoint{bench: "mcf", seed: 1, vsv: true, tk: true}
	prof, err := workload.ByName(p.bench)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(workload.NewGeneratorSeed(prof, p.seed), WithConfig(p.config()))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	close(stop)
	m.stop = stop
	aborted, _ := observeRun(m, p.bench)
	if aborted.err == nil || aborted.err.Kind != FailAborted {
		t.Fatalf("expected FailAborted, got %v", aborted.err)
	}
	fresh, freshS := runPointFresh(t, p)
	ro, rs := runPointReused(t, m, p)
	diffOutcomes(t, p, fresh, ro, freshS, rs)
}

// TestResetBenchMatchesNewBench checks the options-path wrapper: ResetBench
// must reproduce NewBench exactly, including option application order.
func TestResetBenchMatchesNewBench(t *testing.T) {
	opts := []Option{
		WithVSV(core.PolicyFSM()),
		WithTimeKeeping(),
		WithWindows(2_000, 8_000),
		WithSeed(3),
	}
	fresh, err := NewBench("ammp", opts...)
	if err != nil {
		t.Fatal(err)
	}
	fr := fresh.Run("ammp")

	reused, err := NewBench("gcc", WithWindows(1_000, 4_000))
	if err != nil {
		t.Fatal(err)
	}
	reused.Run("gcc")
	if err := reused.ResetBench("ammp", opts...); err != nil {
		t.Fatal(err)
	}
	rr := reused.Run("ammp")
	if !reflect.DeepEqual(fr, rr) {
		t.Errorf("ResetBench diverges from NewBench:\nfresh : %+v\nreused: %+v", fr, rr)
	}
}

// TestResetSteadyStateZeroAlloc pins the arena-reuse payoff: once a machine
// has run a configuration shape, resetting it to the same shape (different
// workload seed — the common campaign case) must not allocate at all. The
// instruction sources are prebuilt so the measurement isolates the
// machine's own reset path; the generator is a small constant cost the
// full-cycle test below bounds separately.
func TestResetSteadyStateZeroAlloc(t *testing.T) {
	cfg := testConfig().WithVSV(core.PolicyFSM()).WithTimeKeeping()
	cfg.WarmupInstructions = 1_000
	cfg.MeasureInstructions = 2_000
	prof, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun invokes the closure trials+1 times (one warm-up call).
	const trials = 10
	srcs := make([]*workload.Generator, trials+3)
	for i := range srcs {
		srcs[i] = workload.NewGeneratorSeed(prof, uint64(i))
	}
	m := NewMachine(cfg, srcs[0])
	m.Run("mcf")
	// Warm once through the reset path so lazily-grown state exists.
	if err := m.Reset(cfg, srcs[1]); err != nil {
		t.Fatal(err)
	}
	i := 2
	if n := testing.AllocsPerRun(trials, func() {
		if err := m.Reset(cfg, srcs[i]); err != nil {
			t.Fatal(err)
		}
		i++
	}); n > 0 {
		t.Fatalf("steady-state Reset allocates %.1f times per call, want 0", n)
	}
}

// TestResetAndRerunNearZeroAlloc extends the zero-alloc discipline to the
// full reset-and-rerun cycle: after the first measurement on a reused
// arena, each further cycle may allocate only the per-run result surface
// (the energy-breakdown map, recorder samples), not per-tick or per-access
// garbage. Each cycle alternates the three policy shapes a campaign mixes
// on one arena — baseline, VSV, VSV with Time-Keeping — so a subsystem
// rebuilt whenever a shape detaches it, or a Time-Keeping tick that
// allocates, shows up here. The bound is deliberately tight — steady-state
// re-runs must stay within a small constant, independent of instruction
// count.
func TestResetAndRerunNearZeroAlloc(t *testing.T) {
	shapes := [][]Option{
		nil,
		{WithVSV(core.PolicyFSM())},
		{WithVSV(core.PolicyFSM()), WithTimeKeeping()},
	}
	opts := func(shape int, seed uint64) []Option {
		return append([]Option{WithWindows(1_000, 4_000), WithSeed(seed)}, shapes[shape]...)
	}
	m, err := NewBench("mcf", opts(0, 0)...)
	if err != nil {
		t.Fatal(err)
	}
	m.Run("mcf")
	// Two warm cycles: the first reset may still grow pools to the
	// high-water mark of the measured windows.
	cycle := func(seed uint64) {
		for shape := range shapes {
			if err := m.ResetBench("mcf", opts(shape, seed)...); err != nil {
				t.Fatal(err)
			}
			m.Run("mcf")
		}
	}
	for s := uint64(1); s <= 2; s++ {
		cycle(s)
	}
	seed := uint64(3)
	const maxAllocsPerRun = 64
	n := testing.AllocsPerRun(5, func() {
		cycle(seed)
		seed++
	})
	t.Logf("%.1f allocations per cycle of %d runs", n, len(shapes))
	if n > maxAllocsPerRun*float64(len(shapes)) {
		t.Fatalf("reset-and-rerun cycle over %d shapes allocates %.1f times, want <= %d per run",
			len(shapes), n, maxAllocsPerRun)
	}
}

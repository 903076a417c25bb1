package sweep

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// tinyConfig keeps test simulations short.
func tinyConfig() sim.Config {
	cfg := sim.BenchConfig()
	cfg.WarmupInstructions = 4_000
	cfg.MeasureInstructions = 20_000
	return cfg
}

func vsvConfig() sim.Config {
	return tinyConfig().WithVSV(core.PolicyFSM())
}

// testPoints is a small mixed campaign: two benchmarks × (baseline, VSV).
func testPoints() []Point {
	base, vsv := tinyConfig(), vsvConfig()
	return []Point{
		{Key: "base/mcf", Benchmark: "mcf", Config: base},
		{Key: "vsv/mcf", Benchmark: "mcf", Config: vsv},
		{Key: "base/eon", Benchmark: "eon", Config: base},
		{Key: "vsv/eon", Benchmark: "eon", Config: vsv},
	}
}

func TestFingerprintStability(t *testing.T) {
	a := Point{Key: "x", Benchmark: "mcf", Config: tinyConfig()}
	b := Point{Key: "completely different key", Benchmark: "mcf", Config: tinyConfig()}
	fa, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fb, _ := b.Fingerprint()
	if fa != fb {
		t.Error("key participates in the fingerprint; it must not")
	}
	c := a
	c.Seed = 7
	if fc, _ := c.Fingerprint(); fc == fa {
		t.Error("seed does not participate in the fingerprint")
	}
	d := Point{Benchmark: "mcf", Config: vsvConfig()}
	if fd, _ := d.Fingerprint(); fd == fa {
		t.Error("config does not participate in the fingerprint")
	}
	e := Point{Benchmark: "eon", Config: tinyConfig()}
	if fe, _ := e.Fingerprint(); fe == fa {
		t.Error("benchmark does not participate in the fingerprint")
	}
}

// TestDeterministicAcrossWorkers is the scheduling-independence contract:
// the same campaign must return identical results (values and order) for
// any worker count and any GOMAXPROCS. make check runs this under -race so
// scheduling races surface.
func TestDeterministicAcrossWorkers(t *testing.T) {
	want, err := New(Workers(1)).Run(context.Background(), testPoints())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := New(Workers(workers)).Run(context.Background(), testPoints())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("results differ between 1 and %d workers", workers)
		}
	}
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	got, err := New(Workers(8)).Run(context.Background(), testPoints())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("results differ under GOMAXPROCS=2")
	}
}

func TestCacheHitAccounting(t *testing.T) {
	e := New(Workers(4))
	pts := testPoints()
	// Duplicate the whole campaign in one batch: the copies must all hit.
	dup := append(append([]Point(nil), pts...), pts...)
	res, err := e.Run(context.Background(), dup)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(dup) {
		t.Fatalf("results = %d, want %d", len(res), len(dup))
	}
	for i := range pts {
		if !reflect.DeepEqual(res[i], res[i+len(pts)]) {
			t.Fatalf("duplicate point %d diverged from its original", i)
		}
	}
	st := e.Stats()
	if st.Ran != len(pts) || st.CacheHits != len(pts) || st.Points != len(dup) {
		t.Fatalf("stats = %+v, want ran %d, hits %d", st, len(pts), len(pts))
	}
	// A second Run of the same points is served entirely from the cache.
	if _, err := e.Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.Ran != len(pts) || st.CacheHits != 2*len(pts) {
		t.Fatalf("post-rerun stats = %+v", st)
	}
	if st.Points != st.Ran+st.CacheHits {
		t.Fatalf("points %d != ran %d + hits %d", st.Points, st.Ran, st.CacheHits)
	}
	if st.WorstRun <= 0 || st.WorstKey == "" || st.SimTime < st.WorstRun {
		t.Fatalf("timing stats implausible: %+v", st)
	}
}

func TestWithoutCache(t *testing.T) {
	e := New(Workers(2), WithoutCache())
	pts := testPoints()[:2]
	dup := append(append([]Point(nil), pts...), pts...)
	if _, err := e.Run(context.Background(), dup); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Ran != len(dup) || st.CacheHits != 0 {
		t.Fatalf("cache not disabled: %+v", st)
	}
}

func TestProgressCallback(t *testing.T) {
	var calls int
	var last Progress
	e := New(Workers(2), OnProgress(func(p Progress) {
		calls++ // serialized by the engine
		last = p
	}))
	pts := testPoints()
	if _, err := e.Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if calls != len(pts) {
		t.Fatalf("progress calls = %d, want %d", calls, len(pts))
	}
	if last.Done != len(pts) || last.Total != len(pts) {
		t.Fatalf("final progress = %+v", last)
	}
	if last.SimsPerSec <= 0 || last.WorstRun <= 0 || last.WorstKey == "" {
		t.Fatalf("progress rates missing: %+v", last)
	}
}

// TestCancellationMidCampaign cancels after the first completed simulation
// of a long campaign, checks Run reports the cancellation, and checks the
// engine stays usable: no entry is left permanently in flight, and a later
// Run completes the remaining points.
func TestCancellationMidCampaign(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	e := New(Workers(1), OnProgress(func(Progress) { cancel() }))
	var pts []Point
	for _, seed := range []uint64{0, 1, 2, 3, 4, 5} {
		pts = append(pts, Point{Key: "eon", Benchmark: "eon", Seed: seed, Config: tinyConfig()})
	}
	_, err := e.Run(ctx, pts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	st := e.Stats()
	if st.Ran >= len(pts) {
		t.Fatalf("cancellation did not stop the campaign: %+v", st)
	}
	ranBefore := st.Ran
	res, err := New(Workers(2)).Run(context.Background(), pts[:1]) // sanity: points are valid
	if err != nil || len(res) != 1 {
		t.Fatalf("control run failed: %v", err)
	}
	// The same engine finishes the campaign on a fresh context, reusing
	// whatever completed before cancellation.
	out, err := e.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(pts) {
		t.Fatalf("resumed run returned %d results", len(out))
	}
	st = e.Stats()
	if st.Ran != len(pts) {
		t.Fatalf("resumed engine ran %d total (was %d), want %d", st.Ran, ranBefore, len(pts))
	}
}

func TestCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(Workers(2))
	if _, err := e.Run(ctx, testPoints()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if st := e.Stats(); st.Ran != 0 {
		t.Fatalf("ran %d sims despite pre-cancelled context", st.Ran)
	}
}

func TestUnknownBenchmark(t *testing.T) {
	e := New(Workers(2))
	_, err := e.Run(context.Background(), []Point{
		{Key: "bad", Benchmark: "nonesuch", Config: tinyConfig()},
	})
	if err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	// The failed point must not poison the cache permanently in a way that
	// blocks valid reruns of other points.
	if _, err := e.Run(context.Background(), testPoints()[:1]); err != nil {
		t.Fatalf("engine unusable after error: %v", err)
	}
}

func TestInvalidConfigSurfacesError(t *testing.T) {
	cfg := tinyConfig()
	cfg.MeasureInstructions = 0
	_, err := New(Workers(1)).Run(context.Background(), []Point{
		{Key: "bad", Benchmark: "eon", Config: cfg},
	})
	if err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRunMap(t *testing.T) {
	e := New(Workers(4))
	pts := testPoints()
	m, err := e.RunMap(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != len(pts) {
		t.Fatalf("map size = %d", len(m))
	}
	for _, p := range pts {
		if m[p.Key].Instructions == 0 {
			t.Fatalf("point %q missing or empty", p.Key)
		}
	}
	// VSV runs spend time in low-power mode on mcf; baselines never do.
	if m["vsv/mcf"].LowFrac == 0 || m["base/mcf"].LowFrac != 0 {
		t.Fatalf("low fractions implausible: vsv %v base %v",
			m["vsv/mcf"].LowFrac, m["base/mcf"].LowFrac)
	}
}

func TestWorkersClamped(t *testing.T) {
	e := New(Workers(0))
	if e.workers != 1 {
		t.Fatalf("workers = %d, want 1", e.workers)
	}
	if _, err := e.Run(context.Background(), nil); err != nil {
		t.Fatalf("empty campaign errored: %v", err)
	}
}

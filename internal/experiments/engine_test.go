package experiments

import (
	"testing"

	"repro/internal/sweep"
)

// TestSharedEngineDedupsAcrossExperiments is the cross-experiment cache
// regression: Figure 4 and Figure 5 both simulate the plain baseline for
// every benchmark they share, so running them against one engine must
// perform fewer machine runs than the sum of their points, with the
// overlap visible in the cache-hit counter.
func TestSharedEngineDedupsAcrossExperiments(t *testing.T) {
	o := tinyOpts()
	o.Engine = sweep.New(sweep.Workers(o.Parallelism))
	names := []string{"mcf", "swim"}

	if _, err := Figure4(o, names); err != nil { // 3 points per benchmark
		t.Fatal(err)
	}
	if _, err := Figure5(o, names, []int{1, 3}); err != nil { // base + 2 per benchmark
		t.Fatal(err)
	}
	st := o.Engine.Stats()
	if st.Points != 12 {
		t.Fatalf("points = %d, want 12", st.Points)
	}
	if st.Ran >= st.Points {
		t.Fatalf("no dedup: ran %d of %d points", st.Ran, st.Points)
	}
	if st.CacheHits == 0 {
		t.Fatal("cache hits not accounted")
	}
	// The two baselines are shared; fig5's threshold-3 policy is also
	// fig4's FSM policy, so 4 of the 12 points must hit.
	if st.CacheHits != 4 || st.Ran != 8 {
		t.Errorf("hits=%d ran=%d, want 4/8", st.CacheHits, st.Ran)
	}
}

// TestRenderedOutputIdenticalAcrossWorkerCounts checks the acceptance
// contract that campaign output is byte-identical for worker counts 1
// and 8.
func TestRenderedOutputIdenticalAcrossWorkerCounts(t *testing.T) {
	names := []string{"mcf", "eon"}
	render := func(workers int) string {
		o := tinyOpts()
		o.Engine = sweep.New(sweep.Workers(workers))
		rows, err := Figure4(o, names)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Residency(o, names)
		if err != nil {
			t.Fatal(err)
		}
		return RenderFigure4(rows) + RenderResidency(res)
	}
	if one, eight := render(1), render(8); one != eight {
		t.Fatalf("output differs between 1 and 8 workers:\n--- 1:\n%s\n--- 8:\n%s", one, eight)
	}
}

// TestRunArtefactsWorkerBound pins that concurrent artefacts share the
// engine's worker bound: the whole campaign, every artefact started at
// once, builds no more machines than the engine has workers.
func TestRunArtefactsWorkerBound(t *testing.T) {
	o := Options{WarmupInstructions: 2_000, MeasureInstructions: 6_000}
	o.Engine = sweep.New(sweep.Workers(2))
	if _, err := RunArtefacts(nil, o, Spec{}, AllArtefacts(), false); err != nil {
		t.Fatal(err)
	}
	st := o.Engine.Stats()
	if st.Ran == 0 {
		t.Fatal("campaign ran nothing")
	}
	if st.FreshBuilds > 2 {
		t.Errorf("FreshBuilds=%d on a 2-worker engine, want <= 2 (ran %d)", st.FreshBuilds, st.Ran)
	}
}

package sweep

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"
)

// seedPoints returns n distinct points (same benchmark/config shape,
// different workload seeds) — the common campaign grid where arena reuse
// pays: every reset keeps the machine's geometry.
func seedPoints(n int, firstSeed uint64) []Point {
	cfg := vsvConfig()
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{
			Key:       string(rune('a' + i)),
			Benchmark: "mcf",
			Seed:      firstSeed + uint64(i),
			Config:    cfg,
		}
	}
	return pts
}

// TestArenaReuseCounted pins the recycle accounting: on one worker, a
// k-point campaign builds exactly one machine and reuses it k-1 times, and
// a second campaign on the same engine reuses that arena for every point.
func TestArenaReuseCounted(t *testing.T) {
	e := New(Workers(1))
	if _, err := e.Run(context.Background(), seedPoints(3, 0)); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.FreshBuilds != 1 || s.ArenaReuses != 2 {
		t.Fatalf("first campaign: FreshBuilds=%d ArenaReuses=%d, want 1/2", s.FreshBuilds, s.ArenaReuses)
	}
	if _, err := e.Run(context.Background(), seedPoints(2, 100)); err != nil {
		t.Fatal(err)
	}
	s = e.Stats()
	if s.FreshBuilds != 1 || s.ArenaReuses != 4 {
		t.Fatalf("second campaign: FreshBuilds=%d ArenaReuses=%d, want 1/4", s.FreshBuilds, s.ArenaReuses)
	}
	if got := s.ReuseRate(); got != 0.8 {
		t.Fatalf("ReuseRate=%v, want 0.8", got)
	}
	if s.RunsPerSec() <= 0 {
		t.Fatal("RunsPerSec must be positive after runs")
	}
}

// TestWorkersBoundConcurrentJobs pins Workers as the engine-wide bound:
// four jobs running concurrently on a two-worker engine never simulate
// more than two points at once, so the summed run wall time (each run
// timed while it holds an arena slot) stays within two walls, and the
// engine builds at most two machines however many jobs share it.
func TestWorkersBoundConcurrentJobs(t *testing.T) {
	const workers, jobs = 2, 4
	e := New(Workers(workers))
	round := func(firstSeed uint64) Stats {
		before := e.Stats()
		errs := make([]error, jobs)
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < jobs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = e.NewJob().Run(context.Background(), seedPoints(3, firstSeed+uint64(3*i)))
			}(i)
		}
		wg.Wait()
		wall := time.Since(start)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("job %d: %v", i, err)
			}
		}
		after := e.Stats()
		if ran := after.Ran - before.Ran; ran != 3*jobs {
			t.Fatalf("ran %d points, want %d", ran, 3*jobs)
		}
		if busy := after.SimTime - before.SimTime; busy > workers*wall {
			t.Errorf("summed run time %v exceeds %d x wall %v: more than %d runs overlapped", busy, workers, wall, workers)
		}
		return after
	}
	if s := round(0); s.FreshBuilds > workers {
		t.Fatalf("FreshBuilds=%d after the first round, want <= %d", s.FreshBuilds, workers)
	}
	first := e.Stats().FreshBuilds
	if s := round(100); s.FreshBuilds != first {
		t.Errorf("second round built %d more machines, want 0", s.FreshBuilds-first)
	}
}

// TestArenaReuseDeterministic is the engine-level differential: the same
// campaign on a reuse-heavy single-worker engine and on a many-worker
// engine (mostly fresh builds) must produce byte-identical results. This
// is the sweep-facing face of the sim package's reset bit-identity tests.
func TestArenaReuseDeterministic(t *testing.T) {
	pts := append(testPoints(), seedPoints(3, 7)...)
	serial, err := New(Workers(1)).Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := New(Workers(8)).Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, wide) {
		t.Error("results differ between 1-worker (arena-reused) and 8-worker engines")
	}
}

// TestCacheBoundEvictionOrder pins the deterministic FIFO policy: with a
// bound of 2, running points A, B, C one at a time must evict exactly A
// (the oldest), so resubmitting A re-runs it while C stays memoized.
func TestCacheBoundEvictionOrder(t *testing.T) {
	e := New(Workers(1), CacheBound(2))
	ctx := context.Background()
	abc := seedPoints(3, 0)
	for _, p := range abc {
		if _, err := e.Run(ctx, []Point{p}); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.CacheLen(); n != 2 {
		t.Fatalf("CacheLen=%d after 3 inserts with bound 2, want 2", n)
	}
	s := e.Stats()
	if s.Evicted != 1 {
		t.Fatalf("Evicted=%d, want 1", s.Evicted)
	}
	// C (newest) must still be cached...
	if _, err := e.Run(ctx, abc[2:3]); err != nil {
		t.Fatal(err)
	}
	s2 := e.Stats()
	if s2.CacheHits != s.CacheHits+1 || s2.Ran != s.Ran {
		t.Fatalf("expected newest point cached: hits %d->%d ran %d->%d",
			s.CacheHits, s2.CacheHits, s.Ran, s2.Ran)
	}
	// ...and A (oldest) must have been the eviction victim.
	if _, err := e.Run(ctx, abc[0:1]); err != nil {
		t.Fatal(err)
	}
	s3 := e.Stats()
	if s3.Ran != s2.Ran+1 {
		t.Fatalf("expected oldest point evicted and re-run: ran %d->%d", s2.Ran, s3.Ran)
	}
	// Re-running A re-inserted it, evicting B; the cache stays at bound.
	if n := e.CacheLen(); n != 2 {
		t.Fatalf("CacheLen=%d, want 2", n)
	}
	if got := e.Stats().Evicted; got != 2 {
		t.Fatalf("Evicted=%d after re-insert over bound, want 2", got)
	}
}

// TestCacheBoundNeverEvictsInflight floods a bound-1 engine with a
// concurrent campaign: every point's waiter must still resolve (an evicted
// in-flight entry would close no done channel and hang RunAll), and the
// campaign must complete with correct results.
func TestCacheBoundNeverEvictsInflight(t *testing.T) {
	e := New(Workers(4), CacheBound(1))
	pts := seedPoints(8, 0)
	res, err := e.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(pts) {
		t.Fatalf("got %d results, want %d", len(res), len(pts))
	}
	if n := e.CacheLen(); n > 1 {
		t.Fatalf("CacheLen=%d after campaign with bound 1, want <=1", n)
	}
	// The bounded engine must still compute the same physics.
	unbounded, err := New(Workers(4)).Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, unbounded) {
		t.Error("bounded-cache results differ from unbounded")
	}
}

package sweep

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestCacheBoundConcurrentJobs hammers a tiny bound from several
// concurrent jobs — the stress case for bounded eviction.
// Pinned properties: every waiter resolves (an evicted in-flight entry
// would hang its campaign), every job computes correct physics while the
// bound churns underneath it, the cache settles back under its bound, and
// after the chaos a deterministic sequence of inserts leaves
// deterministic final cache contents.
func TestCacheBoundConcurrentJobs(t *testing.T) {
	e := New(Workers(4), CacheBound(2))
	want, err := New(Workers(4)).Run(context.Background(), seedPoints(10, 0))
	if err != nil {
		t.Fatal(err)
	}

	// Overlapping grids: job i sweeps seeds i..i+7, so every job shares
	// points with its neighbours — in-flight entries are joined across
	// jobs while eviction runs concurrently.
	const jobs = 3
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	wg.Add(jobs)
	for i := 0; i < jobs; i++ {
		go func(i int) {
			defer wg.Done()
			pts := seedPoints(8, uint64(i))
			r, err := e.NewJob().Run(context.Background(), pts)
			if err != nil {
				errs[i] = err
				return
			}
			for k := range pts {
				if !reflect.DeepEqual(r[k], want[i+k]) {
					errs[i] = fmt.Errorf("seed %d: results differ from solo run", i+k)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if n := e.CacheLen(); n > 2 {
		t.Errorf("CacheLen=%d after concurrent campaigns with bound 2, want <= 2", n)
	}

	// Deterministic epilogue: two sequential single-point campaigns must
	// leave the cache holding exactly those two points (FIFO eviction),
	// regardless of how the concurrent phase interleaved. The points are
	// seeds no job ran, so neither can already be cached in an order the
	// interleaving chose.
	last := seedPoints(2, 100)
	for _, p := range last {
		if _, err := e.Run(context.Background(), []Point{p}); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.CacheLen(); n != 2 {
		t.Fatalf("CacheLen=%d after epilogue, want 2", n)
	}
	before := e.Stats()
	if _, err := e.Run(context.Background(), last); err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if after.Ran != before.Ran || after.CacheHits != before.CacheHits+2 {
		t.Errorf("epilogue points not deterministically cached: ran %d->%d, hits %d->%d",
			before.Ran, after.Ran, before.CacheHits, after.CacheHits)
	}
}

package sim

import (
	"runtime"
	"testing"

	"repro/internal/workload"
)

// TestLoadHitZeroAlloc pins the zero-alloc property of the steady-state
// load path: once a block is resident in the DL1, Machine.Load must not
// allocate. The hot-path overhaul (precomputed tag geometry, slice-based
// load tokens, pooled continuations) exists to keep this path free of
// per-access garbage; this test keeps it that way.
func TestLoadHitZeroAlloc(t *testing.T) {
	p, _ := workload.ByName("gcc")
	m := NewMachine(DefaultConfig(), workload.NewGenerator(p))
	_, dl1, _ := m.Caches()
	const addr = 0x2040
	dl1.Fill(dl1.BlockAddr(addr), false, false)
	if n := testing.AllocsPerRun(1000, func() {
		res := m.Load(addr, 0, false, 1)
		if res.Async || res.Stall {
			t.Fatal("expected an L1 hit")
		}
	}); n != 0 {
		t.Fatalf("L1-hit Load allocates %.1f times per call, want 0", n)
	}
}

// TestLoadHitZeroAllocWithTK repeats the check with the Time-Keeping
// prefetcher attached: its per-access bookkeeping (history shifts, wheel
// scheduling) must also stay allocation-free once its per-set state exists.
func TestLoadHitZeroAllocWithTK(t *testing.T) {
	p, _ := workload.ByName("gcc")
	m := NewMachine(DefaultConfig().WithTimeKeeping(), workload.NewGenerator(p))
	_, dl1, _ := m.Caches()
	const addr = 0x2040
	dl1.Fill(dl1.BlockAddr(addr), false, false)
	// Warm the access once so any lazily-grown per-set state exists.
	m.Load(addr, 0, false, 1)
	if n := testing.AllocsPerRun(1000, func() {
		res := m.Load(addr, 0, false, 2)
		if res.Async || res.Stall {
			t.Fatal("expected an L1 hit")
		}
	}); n != 0 {
		t.Fatalf("L1-hit Load with TK allocates %.1f times per call, want 0", n)
	}
}

// TestNewBenchAllocBytes bounds what building a prewarmed benchmark
// machine allocates. The cache arrays dominate: at 16 bytes a way, the
// three Table 1 caches take 1.06 MB, and the whole machine stays under
// 2 MB.
func TestNewBenchAllocBytes(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := NewBench("mcf")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(m)
	const limit = 2 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Fatalf("NewBench allocated %d bytes, want < %d", got, limit)
	} else {
		t.Logf("NewBench allocated %d bytes", got)
	}
}

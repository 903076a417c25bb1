package prefetch

import (
	"math/rand"
	"testing"
)

func tkSmall() *TimeKeeping {
	cfg := DefaultConfig()
	cfg.DefaultLiveTicks = 32
	cfg.MinDeadTicks = 32
	cfg.DeadFactor = 2
	return New(cfg)
}

func setOf(block uint64) uint64 { return (block >> 5) & 1023 }

// hostFuncs adapts plain functions to the prefetch.Host interface for
// tests.
type hostFuncs struct {
	set     func(uint64) uint64
	present func(uint64) bool
}

func (h hostFuncs) BlockSet(b uint64) uint64   { return h.set(b) }
func (h hostFuncs) BlockPresent(b uint64) bool { return h.present(b) }

var (
	neverPresent  = hostFuncs{setOf, func(uint64) bool { return false }}
	alwaysPresent = hostFuncs{setOf, func(uint64) bool { return true }}
)

func runTicks(tk *TimeKeeping, from, to int64, present Host) []uint64 {
	var out []uint64
	for t := from; t <= to; t++ {
		out = append(out, tk.Tick(t, present)...)
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.PredictorEntries = 100
	if bad.Validate() == nil {
		t.Error("non-pow2 predictor accepted")
	}
	bad = DefaultConfig()
	bad.DecayResolution = 0
	if bad.Validate() == nil {
		t.Error("zero decay resolution accepted")
	}
	bad = DefaultConfig()
	bad.BufferLatency = 0
	if bad.Validate() == nil {
		t.Error("zero buffer latency accepted")
	}
}

func TestDeadPredictionAfterIdle(t *testing.T) {
	tk := tkSmall()
	tk.OnFill(0x1000, setOf(0x1000), 0)
	// Block idle far past the default threshold: dead prediction fires.
	runTicks(tk, 0, 256, neverPresent)
	if tk.Stats().DeadPredictions != 1 {
		t.Fatalf("dead predictions = %d, want 1", tk.Stats().DeadPredictions)
	}
}

func TestAccessPostponesDeath(t *testing.T) {
	tk := tkSmall()
	tk.OnFill(0x1000, setOf(0x1000), 0)
	// Keep touching the block every 16 ticks; it must never be declared dead.
	for now := int64(0); now <= 512; now++ {
		if now%16 == 0 {
			tk.OnAccess(0x1000, now)
		}
		tk.Tick(now, neverPresent)
	}
	if tk.Stats().DeadPredictions != 0 {
		t.Fatalf("live block predicted dead %d times", tk.Stats().DeadPredictions)
	}
}

func TestEvictedBlockNotPredicted(t *testing.T) {
	tk := tkSmall()
	tk.OnFill(0x1000, setOf(0x1000), 0)
	tk.OnEvict(0x1000, setOf(0x1000), 10)
	runTicks(tk, 0, 256, neverPresent)
	if tk.Stats().DeadPredictions != 0 {
		t.Fatal("evicted block predicted dead")
	}
	if tk.Stats().StaleDeadChecks == 0 {
		t.Fatal("stale check not counted")
	}
}

func TestTrainingAndPrefetch(t *testing.T) {
	tk := tkSmall()
	blockA := uint64(0x1000)
	set := setOf(blockA)
	// Same-set address with a different tag.
	blockB := blockA + 1024*32
	if setOf(blockB) != set {
		t.Fatalf("test setup: %d vs %d", setOf(blockB), set)
	}
	// Generation 1: A lives, is evicted; next miss in the set is B → the
	// predictor learns death-of-A ⇒ need-B.
	tk.OnFill(blockA, setOf(blockA), 0)
	tk.OnAccess(blockA, 8)
	tk.OnEvict(blockA, set, 20)
	tk.OnDemandMiss(blockB, set)
	if tk.Stats().PredictorTrains != 1 {
		t.Fatalf("trains = %d", tk.Stats().PredictorTrains)
	}
	// Generation 2: A returns and goes idle; on its dead prediction the
	// prefetcher must request B.
	tk.OnFill(blockA, setOf(blockA), 100)
	got := runTicks(tk, 100, 600, neverPresent)
	if len(got) != 1 || got[0] != blockB {
		t.Fatalf("prefetches = %#v, want [%#x]", got, blockB)
	}
}

func TestPresentFilter(t *testing.T) {
	tk := tkSmall()
	blockA := uint64(0x1000)
	set := setOf(blockA)
	blockB := blockA + 1024*32
	tk.OnFill(blockA, setOf(blockA), 0)
	tk.OnEvict(blockA, set, 20)
	tk.OnDemandMiss(blockB, set)
	tk.OnFill(blockA, setOf(blockA), 100)
	got := runTicks(tk, 100, 600, alwaysPresent)
	if len(got) != 0 {
		t.Fatalf("prefetched already-present block: %#v", got)
	}
	if tk.Stats().FilteredPresent != 1 {
		t.Fatalf("filtered = %d", tk.Stats().FilteredPresent)
	}
}

func TestStrideFallbackOnUntrained(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DefaultLiveTicks = 32
	cfg.MinDeadTicks = 32
	cfg.StrideCoverage = 1.0 // every dying block eligible
	tk := New(cfg)
	tk.OnFill(0x1000, setOf(0x1000), 0)
	got := runTicks(tk, 0, 600, neverPresent)
	want := uint64(0x1000) + uint64(DefaultConfig().StrideLookaheadBlocks)*32
	if len(got) != 1 || got[0] != want {
		t.Fatalf("stride fallback prefetches = %#v, want [%#x]", got, want)
	}
	if tk.Stats().StrideFallbacks != 1 {
		t.Fatalf("fallbacks = %d", tk.Stats().StrideFallbacks)
	}
}

func TestUntrainedSignatureFiltered(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DefaultLiveTicks = 32
	cfg.MinDeadTicks = 32
	cfg.StrideFallback = false
	tk := New(cfg)
	tk.OnFill(0x1000, setOf(0x1000), 0)
	got := runTicks(tk, 0, 600, neverPresent)
	if len(got) != 0 {
		t.Fatalf("untrained predictor issued prefetches: %#v", got)
	}
	if tk.Stats().FilteredUntrained != 1 {
		t.Fatalf("filtered-untrained = %d", tk.Stats().FilteredUntrained)
	}
}

func TestLiveTimeLearnedAcrossGenerations(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DefaultLiveTicks = 10000 // enormous default: gen-1 would never die in test horizon
	cfg.MinDeadTicks = 32
	tk := New(cfg)
	block := uint64(0x2000)
	set := setOf(block)
	// Generation 1: short live time (0 → 16), then evicted.
	tk.OnFill(block, setOf(block), 0)
	tk.OnAccess(block, 16)
	tk.OnEvict(block, set, 40)
	// Generation 2 inherits live≈16 → dead threshold 2*16=32 → dies quickly.
	tk.OnFill(block, setOf(block), 100)
	runTicks(tk, 100, 400, neverPresent)
	if tk.Stats().DeadPredictions != 1 {
		t.Fatalf("dead predictions = %d, want 1 (learned live time)", tk.Stats().DeadPredictions)
	}
}

func TestDemandMissWithoutPendingNoTrain(t *testing.T) {
	tk := tkSmall()
	tk.OnDemandMiss(0x3000, 5)
	if tk.Stats().PredictorTrains != 0 {
		t.Fatal("trained without a pending signature")
	}
}

func TestOnAccessUnknownBlockIgnored(t *testing.T) {
	tk := tkSmall()
	tk.OnAccess(0x9999, 10) // must not panic or corrupt state
	tk.OnEvict(0x9999, 3, 11)
	if len(tk.resident) != 0 {
		t.Fatal("ghost state created")
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with bad config did not panic")
		}
	}()
	New(Config{})
}

func TestConfigAccessor(t *testing.T) {
	tk := New(DefaultConfig())
	if tk.Config().BufferEntries != 128 || tk.Config().DecayResolution != 16 {
		t.Fatal("config accessor wrong")
	}
	bad := DefaultConfig()
	bad.SignatureTagBits = 0
	if bad.Validate() == nil {
		t.Error("zero signature bits accepted")
	}
	bad = DefaultConfig()
	bad.BufferEntries = 0
	if bad.Validate() == nil {
		t.Error("zero buffer entries accepted")
	}
	bad = DefaultConfig()
	bad.DefaultLiveTicks = 0
	if bad.Validate() == nil {
		t.Error("zero live ticks accepted")
	}
	bad = DefaultConfig()
	bad.StrideLookaheadBlocks = 0
	if bad.Validate() == nil {
		t.Error("zero lookahead accepted")
	}
	bad = DefaultConfig()
	bad.StrideCoverage = 1.5
	if bad.Validate() == nil {
		t.Error("coverage > 1 accepted")
	}
}

// scanHorizon is NextEventTick computed from a full scan of the wheel: the
// reference the cached, forward-scanning horizon must match. It also checks
// the scheduled count against the entries actually in the wheel.
func scanHorizon(t *testing.T, tk *TimeKeeping, now int64) int64 {
	t.Helper()
	min, n := int64(1<<63-1), 0
	for slot := range tk.wheel {
		for _, we := range tk.wheel[slot] {
			n++
			if we.bucket < min {
				min = we.bucket
			}
		}
	}
	if n != tk.scheduled {
		t.Fatalf("wheel holds %d entries, scheduled says %d", n, tk.scheduled)
	}
	if n == 0 {
		return 1<<63 - 1
	}
	res := int64(tk.cfg.DecayResolution)
	if at := min * res; at > now {
		return at
	}
	return ((now + res - 1) / res) * res
}

// TestPropertyNextEventTickMatchesFullScan drives random fill, access and
// evict sequences through the prefetcher while time advances the way the
// simulator advances it: tick by tick, or in fast-forward jumps that skip
// decay boundaries up to the current horizon. After every step the horizon
// must equal a full scan of the wheel. Long dead thresholds on some seeds
// put entries beyond one lap of the ring, exercising the rescan fallback.
func TestPropertyNextEventTickMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		if seed%3 == 0 {
			cfg.MinDeadTicks = wheelSlots * int64(cfg.DecayResolution) * 2
		}
		tk := New(cfg)
		var resident []uint64
		now := int64(r.Intn(100))
		for step := 0; step < 3000; step++ {
			switch op := r.Intn(10); {
			case op < 3:
				block := uint64(r.Intn(2048)) << 5
				tk.OnFill(block, setOf(block), now)
				resident = append(resident, block)
			case op < 5 && len(resident) > 0:
				tk.OnAccess(resident[r.Intn(len(resident))], now)
			case op < 6 && len(resident) > 0:
				i := r.Intn(len(resident))
				block := resident[i]
				resident[i] = resident[len(resident)-1]
				resident = resident[:len(resident)-1]
				tk.OnEvict(block, setOf(block), now)
			case op < 9:
				// Tick through up to a few decay boundaries.
				for end := now + 1 + int64(r.Intn(80)); now < end; now++ {
					tk.Tick(now, neverPresent)
				}
			default:
				// Fast-forward: skip straight to a tick at or before the
				// horizon (anywhere, when nothing is scheduled).
				if h := tk.NextEventTick(now); h == 1<<63-1 {
					now += int64(r.Intn(50_000))
				} else {
					now += r.Int63n(h - now + 1)
				}
			}
			if got, want := tk.NextEventTick(now), scanHorizon(t, tk, now); got != want {
				t.Fatalf("seed %d, step %d, now %d: NextEventTick = %d, full scan says %d",
					seed, step, now, got, want)
			}
		}
	}
}

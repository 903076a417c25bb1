// Package sim composes the substrates — out-of-order pipeline, cache
// hierarchy with MSHRs, memory bus, main memory, branch prediction, the
// Wattch-style power model, the Time-Keeping prefetcher and the VSV
// controller — into the full machine of the paper's evaluation, and runs
// workloads on it with warm-up exactly as §5 describes.
package sim

import (
	"fmt"
	"math"

	"repro/internal/branch"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/prefetch"
)

// PrewarmRange is an address range to install into the hierarchy before
// simulation starts.
type PrewarmRange struct {
	Base, Bytes uint64
	// IntoL1 additionally installs the range into the data L1 (for
	// L1-resident sets); every range is installed into the L2.
	IntoL1 bool
}

// fits reports whether the range's block walk — Base, Base+bb, … until a
// step reaches Base+Bytes — ends at or below 2^64-1.
func (pr PrewarmRange) fits(bb uint64) bool {
	blocks := pr.Bytes / bb
	if pr.Bytes%bb != 0 {
		blocks++
	}
	return blocks <= math.MaxUint64/bb && blocks*bb <= math.MaxUint64-pr.Base
}

// VSVConfig enables the VSV controller on the machine.
type VSVConfig struct {
	Policy core.Policy
	Timing core.Timing
	// TriggerOnPrefetch lets prefetch-caused L2 misses arm the down-FSM —
	// an ablation of §4.2's rule that VSV must ignore them (prefetch
	// misses do not stall the pipeline, so reacting to them costs
	// performance for no power benefit).
	TriggerOnPrefetch bool
}

// Config is the full machine configuration. The zero value is not usable;
// start from DefaultConfig.
type Config struct {
	Pipeline pipeline.Config
	Branch   branch.Config
	IL1      cache.Config
	DL1      cache.Config
	L2       cache.Config
	Bus      bus.Config
	Mem      mem.Config
	Power    power.Config

	// VSV, when non-nil, attaches the VSV controller (the technique under
	// evaluation). Nil runs the baseline processor.
	VSV *VSVConfig
	// TimeKeeping, when non-nil, attaches the Time-Keeping hardware
	// prefetcher and its prefetch buffer (§5.1).
	TimeKeeping *prefetch.Config

	// Prewarm lists address ranges installed into the caches before the
	// run starts. The paper fast-forwards two billion instructions with
	// warm caches; our runs are far shorter, so resident working sets are
	// installed directly (cold misses on them would otherwise be
	// mis-charged to the measurement window).
	Prewarm []PrewarmRange

	// WarmupInstructions are executed before statistics are reset (the
	// paper warms caches during fast-forward so VSV gets no credit for
	// cold misses).
	WarmupInstructions uint64
	// MeasureInstructions are executed and measured after warm-up.
	MeasureInstructions uint64

	// WatchdogTicks aborts the run if no instruction commits for this many
	// ticks (a deadlock is a simulator bug; 0 disables).
	WatchdogTicks int64

	// TraceInterval, when positive, attaches a time-series recorder that
	// samples VDD, power, IPC and mode every TraceInterval ticks during
	// the measurement window (see internal/trace).
	TraceInterval int64
	// TraceSamples bounds the recorded series (default 4096 when tracing
	// is enabled).
	TraceSamples int

	// SelfCheck asserts cross-component invariants every tick (occupancy
	// bounds, energy monotonicity, voltage envelope, event-queue sanity).
	// Used by the integration tests; costs a few percent of speed.
	SelfCheck bool

	// Faults, when non-nil, attaches a deterministic fault injector that
	// perturbs the substrates at their interfaces (see internal/faults).
	// Any failure reproduces from (Faults.Seed, Faults.Specs) alone. Nil —
	// the default — adds no per-tick work to the hot path.
	Faults *faults.Plan

	// ForceSlowTick disables the event-driven fast-forward path, ticking
	// every quiesced cycle individually (debug; see internal/sim
	// fastforward.go). Results are bit-identical either way — this knob
	// exists so the differential tests and the golden gate can prove it.
	ForceSlowTick bool
}

// DefaultConfig returns the paper's Table 1 baseline: 8-way out-of-order,
// 64 KB 2-way 2-cycle L1s, 2 MB 8-way 12-cycle L2 (both LRU), 32/32/64
// MSHRs, 32-byte pipelined split-transaction bus with 4-cycle occupancy,
// and infinite 100-cycle memory.
func DefaultConfig() Config {
	return Config{
		Pipeline: pipeline.DefaultConfig(),
		Branch:   branch.DefaultConfig(),
		IL1: cache.Config{
			Name: "IL1", SizeBytes: 64 << 10, Assoc: 2, BlockBytes: 32,
			HitLatency: 2, MSHREntries: 32,
		},
		DL1: cache.Config{
			Name: "DL1", SizeBytes: 64 << 10, Assoc: 2, BlockBytes: 32,
			HitLatency: 2, MSHREntries: 32,
		},
		L2: cache.Config{
			Name: "L2", SizeBytes: 2 << 20, Assoc: 8, BlockBytes: 32,
			HitLatency: 12, MSHREntries: 64,
		},
		Bus:                 bus.DefaultConfig(),
		Mem:                 mem.DefaultConfig(),
		Power:               power.DefaultConfig(),
		WarmupInstructions:  100_000,
		MeasureInstructions: 400_000,
		WatchdogTicks:       2_000_000,
	}
}

// WithVSV returns a copy of c with the VSV controller attached.
func (c Config) WithVSV(p core.Policy) Config {
	c.VSV = &VSVConfig{Policy: p, Timing: core.DefaultTiming()}
	return c
}

// WithTimeKeeping returns a copy of c with Time-Keeping prefetching
// attached (and its buffer's power accounted).
func (c Config) WithTimeKeeping() Config {
	tk := prefetch.DefaultConfig()
	c.TimeKeeping = &tk
	c.Power.PrefetchBufEnabled = true
	return c
}

// Validate reports a configuration error, if any.
//
//vsv:coldpath
func (c Config) Validate() error {
	if err := c.Pipeline.Validate(); err != nil {
		return err
	}
	if err := c.Branch.Validate(); err != nil {
		return err
	}
	for _, cc := range []cache.Config{c.IL1, c.DL1, c.L2} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	if c.Bus.Occupancy < 1 {
		return fmt.Errorf("sim: bus occupancy %d < 1", c.Bus.Occupancy)
	}
	if c.Mem.LatencyTicks < 1 {
		return fmt.Errorf("sim: memory latency %d < 1", c.Mem.LatencyTicks)
	}
	if c.IL1.BlockBytes != c.L2.BlockBytes || c.DL1.BlockBytes != c.L2.BlockBytes {
		return fmt.Errorf("sim: L1/L2 block sizes must match")
	}
	for i, pr := range c.Prewarm {
		if !pr.fits(uint64(c.L2.BlockBytes)) {
			return fmt.Errorf("sim: prewarm range %d (base %#x, %d bytes) runs past the top of the address space",
				i, pr.Base, pr.Bytes)
		}
	}
	if c.MeasureInstructions == 0 {
		return fmt.Errorf("sim: zero measurement window")
	}
	if c.VSV != nil {
		if err := c.VSV.Policy.Validate(); err != nil {
			return err
		}
		if err := c.VSV.Timing.Validate(); err != nil {
			return err
		}
	}
	if c.TimeKeeping != nil {
		if err := c.TimeKeeping.Validate(); err != nil {
			return err
		}
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("sim: fault plan: %w", err)
		}
	}
	return nil
}

// Package prefetch implements the Time-Keeping hardware prefetcher the
// paper stress-tests VSV with (§5.1, after Hu et al., "Timekeeping in the
// Memory System", ISCA 2002), plus its 128-entry fully-associative FIFO
// prefetch buffer.
//
// Mechanism: each L1 data-cache block's idle time is tracked with decay
// counters of 16-cycle resolution. When a block has been idle for longer
// than its previous generation's live time (with a safety factor), it is
// predicted dead. A 16 KB address predictor — indexed by a signature built
// from nine L1 tag bits and one index bit, trained with per-set history —
// then supplies the block address expected to be needed next in that set,
// and a prefetch is issued to the lower hierarchy. Returned data is placed
// in both the L2 and the prefetch buffer (checked on L1 misses with a
// 2-cycle access).
package prefetch

import "fmt"

// Config sets the Time-Keeping parameters; DefaultConfig matches §5.1.
type Config struct {
	// DecayResolution is the decay-counter granularity in ticks (paper: 16).
	DecayResolution int
	// PredictorEntries sizes the address predictor (paper: 16 KB; modeled
	// as 8192 entries).
	PredictorEntries int
	// SignatureTagBits is the number of L1 tag bits in the signature
	// (paper: 9, plus 1 index bit).
	SignatureTagBits int
	// BufferEntries sizes the prefetch buffer (paper: 128).
	BufferEntries int
	// BufferLatency is the buffer's access time in pipeline cycles
	// (paper: 2).
	BufferLatency int
	// DefaultLiveTicks seeds the live-time estimate for a frame's first
	// generation.
	DefaultLiveTicks int64
	// DeadFactor multiplies the previous live time to form the dead
	// threshold (idle > DeadFactor × live ⇒ dead).
	DeadFactor int64
	// MinDeadTicks floors the dead threshold so short-lived generations do
	// not cause prediction storms.
	MinDeadTicks int64
	// StrideFallback enables dead-block-triggered sequential prefetching
	// when the correlation table has no trained entry for a signature.
	// Hu et al.'s timekeeping framework drives both correlation- and
	// stride-style address predictors off the same decay signal; within
	// this reproduction's short measurement windows the correlating table
	// rarely re-observes a signature (miss sequences repeat only across
	// full array laps), so the fallback carries the technique's effect.
	// See DESIGN.md §2.
	StrideFallback bool
	// StrideLookaheadBlocks is how many blocks ahead of a dying block the
	// fallback prefetches.
	StrideLookaheadBlocks int
	// StrideCoverage is the fraction of dying blocks for which the
	// fallback fires (selected by a deterministic address hash). It models
	// the finite accuracy of the real tag-correlating predictor, whose
	// published coverage is in this range; 1.0 would assume a perfect
	// next-block oracle.
	StrideCoverage float64
}

// DefaultConfig returns the paper's Time-Keeping configuration.
func DefaultConfig() Config {
	return Config{
		DecayResolution:       16,
		PredictorEntries:      8192,
		SignatureTagBits:      9,
		BufferEntries:         128,
		BufferLatency:         2,
		DefaultLiveTicks:      64,
		DeadFactor:            2,
		MinDeadTicks:          64,
		StrideFallback:        true,
		StrideLookaheadBlocks: 32,
		StrideCoverage:        0.6,
	}
}

// Validate reports a configuration error, if any.
//
//vsv:coldpath
func (c Config) Validate() error {
	pow2 := func(v int) bool { return v > 0 && v&(v-1) == 0 }
	switch {
	case c.DecayResolution < 1:
		return fmt.Errorf("timekeeping: decay resolution %d < 1", c.DecayResolution)
	case !pow2(c.PredictorEntries):
		return fmt.Errorf("timekeeping: predictor entries %d not a power of two", c.PredictorEntries)
	case c.SignatureTagBits < 1 || c.SignatureTagBits > 20:
		return fmt.Errorf("timekeeping: signature bits %d out of range", c.SignatureTagBits)
	case c.BufferEntries < 1:
		return fmt.Errorf("timekeeping: buffer entries %d < 1", c.BufferEntries)
	case c.BufferLatency < 1:
		return fmt.Errorf("timekeeping: buffer latency %d < 1", c.BufferLatency)
	case c.DefaultLiveTicks < 1 || c.DeadFactor < 1 || c.MinDeadTicks < 1:
		return fmt.Errorf("timekeeping: live/dead parameters must be positive")
	case c.StrideFallback && c.StrideLookaheadBlocks < 1:
		return fmt.Errorf("timekeeping: stride lookahead %d < 1", c.StrideLookaheadBlocks)
	case c.StrideFallback && (c.StrideCoverage <= 0 || c.StrideCoverage > 1):
		return fmt.Errorf("timekeeping: stride coverage %g out of (0,1]", c.StrideCoverage)
	}
	return nil
}

// Stats counts prefetcher events.
type Stats struct {
	DeadPredictions   uint64
	PrefetchesIssued  uint64
	PredictorTrains   uint64
	PredictorHits     uint64
	BufferHits        uint64
	BufferInsertions  uint64
	StaleDeadChecks   uint64
	FilteredPresent   uint64
	FilteredUntrained uint64
	StrideFallbacks   uint64
}

// blockState tracks the live generation of one resident L1 block.
type blockState struct {
	filledAt   int64
	lastAccess int64
	prevLive   int64
	deadDone   bool // dead prediction already made this generation
}

// wheelSlots sizes the timing wheel's bucket ring (a power of two). Events
// whose deadline lies beyond the ring's horizon simply share a slot with a
// nearer bucket and wait for their exact bucket to come around.
const wheelSlots = 1024

// wheelEntry is one scheduled dead-block check.
type wheelEntry struct {
	bucket int64
	block  uint64
}

// TimeKeeping is the dead-block predictor + address predictor. One instance
// observes one L1 data cache. Not safe for concurrent use.
type TimeKeeping struct {
	cfg Config

	// resident maps block address → generation state for blocks in the L1.
	// States are recycled through free, so the steady state allocates
	// nothing per fill/evict generation.
	resident map[uint64]*blockState
	free     []*blockState
	// liveHistory remembers, per L1 set, the live time of the most recent
	// generation that ended there — the software equivalent of the paper's
	// per-frame decay counters (a frame's next tenant inherits the live
	// time its predecessor exhibited). Indexed by set, grown on demand.
	liveHistory []int64
	// wheel buckets dead-check events by decayed time: a fixed ring of
	// bucket slots indexed bucket mod wheelSlots. Each entry remembers its
	// exact bucket, so far-future events sharing a slot are skipped (and
	// kept) until their bucket arrives.
	wheel   [wheelSlots][]wheelEntry
	matured []uint64 // scratch: blocks maturing in the current bucket
	targets []uint64 // scratch: Tick's result, valid until the next Tick
	// predictor maps signatures to the next block address needed.
	predictor []uint64
	predValid []bool
	// pendingSig holds, per L1 set, the signature formed when the set's
	// last block died; the next demand miss in the set trains it. Indexed
	// by set, grown on demand, hasPending gating validity.
	pendingSig []uint32
	hasPending []bool

	// scheduled counts wheel entries across all slots; while it is zero,
	// every Tick is a no-op and fast-forward may skip decay boundaries.
	scheduled int
	// nextBucket caches the earliest bucket any scheduled entry matures in
	// (nextBucketUnknown forces a rescan). Boundaries before it are no-ops:
	// their slots hold nothing, or only future-bucket entries whose
	// keep-compaction rewrites the slot with identical contents.
	nextBucket int64
	// scanFrom is the bucket after the last one Tick popped. Every
	// scheduled entry matures at or after it: schedule always lands past
	// the current boundary, and fast-forward never skips a boundary at or
	// before nextBucket. The rescan starts there.
	scanFrom int64

	stats Stats
}

// New builds a Time-Keeping prefetcher, panicking on invalid configuration.
func New(cfg Config) *TimeKeeping {
	tk := &TimeKeeping{}
	tk.Reset(cfg)
	return tk
}

// Reset reinitializes the prefetcher in place to the state of New(cfg):
// resident block states return to the free pool, the timing-wheel ring and
// per-set tables are cleared keeping their backing, and the predictor
// tables are reused when PredictorEntries is unchanged.
func (tk *TimeKeeping) Reset(cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	tk.cfg = cfg
	if tk.resident == nil {
		tk.resident = make(map[uint64]*blockState)
	} else {
		for block, s := range tk.resident {
			tk.free = append(tk.free, s)
			delete(tk.resident, block)
		}
	}
	for i := range tk.liveHistory {
		tk.liveHistory[i] = 0
	}
	for slot := range tk.wheel {
		tk.wheel[slot] = tk.wheel[slot][:0]
	}
	tk.matured = tk.matured[:0]
	tk.targets = tk.targets[:0]
	if len(tk.predictor) != cfg.PredictorEntries {
		tk.predictor = make([]uint64, cfg.PredictorEntries)
		tk.predValid = make([]bool, cfg.PredictorEntries)
	} else {
		for i := range tk.predictor {
			tk.predictor[i] = 0
			tk.predValid[i] = false
		}
	}
	for i := range tk.pendingSig {
		tk.pendingSig[i] = 0
		tk.hasPending[i] = false
	}
	tk.scheduled = 0
	tk.nextBucket = 0
	tk.scanFrom = 0
	tk.stats = Stats{}
}

// growSets ensures the per-set tables cover set.
func (tk *TimeKeeping) growSets(set uint64) {
	if int(set) < len(tk.liveHistory) {
		return
	}
	n := len(tk.liveHistory)
	if n == 0 {
		n = 64
	}
	for n <= int(set) {
		n *= 2
	}
	live := make([]int64, n)
	copy(live, tk.liveHistory)
	tk.liveHistory = live
	sig := make([]uint32, n)
	copy(sig, tk.pendingSig)
	tk.pendingSig = sig
	has := make([]bool, n)
	copy(has, tk.hasPending)
	tk.hasPending = has
}

// Config returns the prefetcher configuration.
func (tk *TimeKeeping) Config() Config { return tk.cfg }

// Stats returns a snapshot of the counters.
func (tk *TimeKeeping) Stats() Stats { return tk.stats }

// signature builds the predictor index from an L1 block address and its set
// (nine tag bits + one index bit, §5.1).
func (tk *TimeKeeping) signature(block, set uint64) uint32 {
	tagBits := (block >> 16) & ((1 << uint(tk.cfg.SignatureTagBits)) - 1)
	sig := uint32(tagBits<<1 | (set & 1))
	return sig & uint32(tk.cfg.PredictorEntries-1)
}

func (tk *TimeKeeping) deadline(s *blockState) int64 {
	live := s.prevLive
	if live <= 0 {
		live = tk.cfg.DefaultLiveTicks
	}
	d := live * tk.cfg.DeadFactor
	if d < tk.cfg.MinDeadTicks {
		d = tk.cfg.MinDeadTicks
	}
	return d
}

// nextBucketUnknown marks the nextBucket cache stale (rescan on demand).
const nextBucketUnknown = int64(-1)

func (tk *TimeKeeping) schedule(block uint64, s *blockState) {
	at := s.lastAccess + tk.deadline(s)
	res := int64(tk.cfg.DecayResolution)
	bucket := (at + res - 1) / res // ceil: process at or after the deadline
	slot := bucket & (wheelSlots - 1)
	tk.wheel[slot] = append(tk.wheel[slot], wheelEntry{bucket: bucket, block: block})
	if tk.scheduled == 0 || (tk.nextBucket != nextBucketUnknown && bucket < tk.nextBucket) {
		tk.nextBucket = bucket
	}
	tk.scheduled++
}

// NextEventTick returns a conservative lower bound on the next tick at
// which Tick can do anything: the decay boundary of the earliest scheduled
// dead-check at or after now, or (1<<63)-1 when the wheel is empty.
// Boundaries before it are provably no-ops, so fast-forward may jump whole
// empty stretches of the wheel, not just to the next 16-tick boundary.
func (tk *TimeKeeping) NextEventTick(now int64) int64 {
	if tk.scheduled == 0 {
		return 1<<63 - 1
	}
	if tk.nextBucket == nextBucketUnknown {
		tk.rescanNextBucket()
	}
	res := int64(tk.cfg.DecayResolution)
	if at := tk.nextBucket * res; at > now {
		return at
	}
	// The earliest bucket's boundary is at or behind now (it matures this
	// very tick); wake at the boundary covering now.
	return ((now + res - 1) / res) * res
}

// rescanNextBucket recomputes the earliest scheduled bucket. Called lazily
// after the previous earliest bucket was popped. Every entry matures at or
// after scanFrom, so the first bucket from there whose slot holds an entry
// for exactly that bucket is the earliest; usually it lies a few slots
// ahead. Only when no entry matures within one lap of the ring does it fall
// back to the full scan.
func (tk *TimeKeeping) rescanNextBucket() {
	for b := tk.scanFrom; b < tk.scanFrom+wheelSlots; b++ {
		for _, we := range tk.wheel[b&(wheelSlots-1)] {
			if we.bucket == b {
				tk.nextBucket = b
				return
			}
		}
	}
	min := int64(1<<63 - 1)
	for slot := range tk.wheel {
		for _, we := range tk.wheel[slot] {
			if we.bucket < min {
				min = we.bucket
			}
		}
	}
	tk.nextBucket = min
}

// strideEligible deterministically selects StrideCoverage of all blocks.
func (tk *TimeKeeping) strideEligible(block uint64) bool {
	h := (block >> 5) * 0x9e3779b97f4a7c15 >> 40
	return float64(h%1000) < tk.cfg.StrideCoverage*1000
}

// OnFill records that the L1 filled block (mapping to set) at time now.
func (tk *TimeKeeping) OnFill(block, set uint64, now int64) {
	var prevLive int64
	if int(set) < len(tk.liveHistory) {
		prevLive = tk.liveHistory[set]
	}
	s := tk.resident[block]
	if s == nil {
		if n := len(tk.free); n > 0 {
			s = tk.free[n-1]
			tk.free = tk.free[:n-1]
		} else {
			s = &blockState{}
		}
		tk.resident[block] = s
	}
	*s = blockState{filledAt: now, lastAccess: now, prevLive: prevLive}
	tk.schedule(block, s)
}

// OnAccess records a demand hit on block at time now.
func (tk *TimeKeeping) OnAccess(block uint64, now int64) {
	s := tk.resident[block]
	if s == nil {
		return
	}
	s.lastAccess = now
	if !s.deadDone {
		tk.schedule(block, s)
	}
}

// OnEvict records that the L1 evicted block at time now, closing its
// generation: the live time (fill → last access) trains the next
// generation's dead threshold, and the block's death context becomes the
// set's pending signature.
func (tk *TimeKeeping) OnEvict(block, set uint64, now int64) {
	s := tk.resident[block]
	if s == nil {
		return
	}
	tk.growSets(set)
	tk.liveHistory[set] = s.lastAccess - s.filledAt
	delete(tk.resident, block)
	tk.free = append(tk.free, s)
	tk.pendingSig[set] = tk.signature(block, set)
	tk.hasPending[set] = true
}

// OnDemandMiss trains the address predictor: the set's pending signature
// (from the last death in the set) learns that missBlock was needed next.
func (tk *TimeKeeping) OnDemandMiss(missBlock, set uint64) {
	if int(set) >= len(tk.hasPending) || !tk.hasPending[set] {
		return
	}
	sig := tk.pendingSig[set]
	tk.predictor[sig] = missBlock
	tk.predValid[sig] = true
	tk.hasPending[set] = false
	tk.stats.PredictorTrains++
}

// Host is Time-Keeping's deterministic window into the cache hierarchy
// it prefetches for. It replaces per-call function parameters so the
// per-tick path carries no closures: the machine passes itself (an
// interface holding a pointer allocates nothing), matching the
// bus.Completer / mem.ReadNotifier continuation idiom.
type Host interface {
	// BlockSet maps a block address to its L1 set index.
	BlockSet(block uint64) uint64
	// BlockPresent reports whether the block is already covered — in the
	// L1, the prefetch buffer, or in flight — so the prefetch would be
	// redundant.
	BlockPresent(block uint64) bool
}

// Tick advances the decay clock; at each decay boundary it pops matured
// dead-check events and returns the block addresses that should be
// prefetched, consulting host to map blocks to sets and to filter
// requests whose target is already covered. The returned slice is scratch
// owned by tk: it is valid until the next Tick.
//
//vsv:hotpath
func (tk *TimeKeeping) Tick(now int64, host Host) []uint64 {
	if now%int64(tk.cfg.DecayResolution) != 0 {
		return nil
	}
	bucket := now / int64(tk.cfg.DecayResolution)
	slot := bucket & (wheelSlots - 1)
	entries := tk.wheel[slot]
	if len(entries) == 0 {
		return nil
	}
	// Pop this bucket's entries; keep (in order) entries for future buckets
	// that merely share the slot, drop entries whose bucket has passed
	// (they can never fire — buckets are visited exactly once).
	blocks := tk.matured[:0]
	kept := entries[:0]
	for _, we := range entries {
		switch {
		case we.bucket == bucket:
			blocks = append(blocks, we.block)
		case we.bucket > bucket:
			kept = append(kept, we)
		}
	}
	if dropped := len(entries) - len(kept); dropped > 0 {
		tk.scheduled -= dropped
		tk.scanFrom = bucket + 1
		if tk.nextBucket != nextBucketUnknown && tk.nextBucket <= bucket {
			tk.nextBucket = nextBucketUnknown
		}
	}
	tk.wheel[slot] = kept
	tk.matured = blocks
	if len(blocks) == 0 {
		return nil
	}
	out := tk.targets[:0]
	for _, block := range blocks {
		s := tk.resident[block]
		if s == nil || s.deadDone {
			tk.stats.StaleDeadChecks++
			continue
		}
		if now < s.lastAccess+tk.deadline(s) {
			// Re-accessed since this event was scheduled; a newer event is
			// already in the wheel.
			tk.stats.StaleDeadChecks++
			continue
		}
		// Block predicted dead.
		s.deadDone = true
		tk.stats.DeadPredictions++
		set := host.BlockSet(block)
		sig := tk.signature(block, set)
		// The death context itself becomes the set's pending signature, so
		// the next miss in the set trains it even without an eviction.
		tk.growSets(set)
		tk.pendingSig[set] = sig
		tk.hasPending[set] = true
		// Prefer the trained correlation; if its target is already covered
		// (common when the correlated "next miss" has long since happened),
		// fall back to the stride target off the dying block.
		issued := false
		if tk.predValid[sig] {
			if target := tk.predictor[sig]; !host.BlockPresent(target) {
				tk.stats.PredictorHits++
				tk.stats.PrefetchesIssued++
				out = append(out, target)
				issued = true
			}
		} else if !tk.cfg.StrideFallback {
			tk.stats.FilteredUntrained++
			continue
		}
		if !issued && tk.cfg.StrideFallback && tk.strideEligible(block) {
			if target := block + uint64(tk.cfg.StrideLookaheadBlocks)*32; !host.BlockPresent(target) {
				tk.stats.StrideFallbacks++
				tk.stats.PrefetchesIssued++
				out = append(out, target)
				issued = true
			}
		}
		if !issued {
			tk.stats.FilteredPresent++
		}
	}
	tk.targets = out
	return out
}

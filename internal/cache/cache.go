// Package cache models set-associative caches with true LRU replacement and
// miss-status-handling registers (MSHRs), matching the Table 1 configuration
// of the VSV paper: 64 KB 2-way L1s, a 2 MB 8-way L2, write-back
// write-allocate, with 32/32/64 MSHR entries for IL1/DL1/L2.
//
// The caches are tag-only timing models: they track presence, recency and
// dirtiness of blocks, not data. Latencies are owned by the pipeline and
// memory system (the clock domain of a cache depends on the VSV power mode),
// so this package answers only "hit or miss, and what got evicted".
//
// A way is 16 bytes: the block's tag and a meta word
// lastUse<<2 | dirty<<1 | prefetch. lastUse is a per-cache use clock that
// advances before every stamp, so an installed way has lastUse >= 1 and
// meta is zero exactly when the way is empty; valid ways carry distinct
// stamps, so LRU order within a set is meta order. lastUse keeps 62 bits,
// and no run reaches 2^62 uses. All ways of a cache sit in one flat array,
// set i at [i*Assoc, (i+1)*Assoc).
package cache

import "fmt"

// Config describes one cache.
type Config struct {
	// Name labels the cache in statistics ("IL1", "DL1", "L2").
	Name string
	// SizeBytes is the total capacity. Must be a power of two.
	SizeBytes int
	// Assoc is the set associativity. Must divide SizeBytes/BlockBytes.
	Assoc int
	// BlockBytes is the line size. Must be a power of two.
	BlockBytes int
	// HitLatency is the access time in cycles of the cache's own clock
	// domain (pipeline cycles for L1s, nanoseconds for the L2, whose supply
	// is fixed at VDDH — see DESIGN.md §5).
	HitLatency int
	// MSHREntries bounds the number of outstanding misses.
	MSHREntries int
}

// Validate reports a configuration error, if any.
//
//vsv:coldpath
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.SizeBytes&(c.SizeBytes-1) != 0:
		return fmt.Errorf("cache %s: size %d is not a positive power of two", c.Name, c.SizeBytes)
	case c.BlockBytes <= 0 || c.BlockBytes&(c.BlockBytes-1) != 0:
		return fmt.Errorf("cache %s: block size %d is not a positive power of two", c.Name, c.BlockBytes)
	case c.Assoc <= 0:
		return fmt.Errorf("cache %s: associativity %d <= 0", c.Name, c.Assoc)
	case c.SizeBytes/c.BlockBytes < c.Assoc:
		return fmt.Errorf("cache %s: fewer blocks than ways", c.Name)
	case (c.SizeBytes/c.BlockBytes)%c.Assoc != 0:
		return fmt.Errorf("cache %s: block count not divisible by associativity", c.Name)
	case c.HitLatency < 1:
		return fmt.Errorf("cache %s: hit latency %d < 1", c.Name, c.HitLatency)
	case c.MSHREntries < 1:
		return fmt.Errorf("cache %s: MSHR entries %d < 1", c.Name, c.MSHREntries)
	}
	return nil
}

// AccessKind distinguishes the three ways a block can be touched.
type AccessKind uint8

const (
	// Read is a demand load or instruction fetch.
	Read AccessKind = iota
	// Write is a store (write-allocate: a miss fetches the block, and the
	// filled block is installed dirty).
	Write
	// Prefetch is a non-binding software or hardware prefetch probe.
	Prefetch
)

// Stats counts cache events. Demand misses exclude prefetch probes, matching
// the paper's MR metric ("L2 demand misses per 1,000 instructions").
type Stats struct {
	Accesses       uint64
	Hits           uint64
	Misses         uint64
	DemandAccesses uint64
	DemandMisses   uint64
	PrefetchMisses uint64
	Fills          uint64
	Evictions      uint64
	Writebacks     uint64
}

// line is one way: the block's tag and meta = lastUse<<2 | dirty<<1 |
// prefetch (see the package doc). meta == 0 means the way is empty.
type line struct {
	tag, meta uint64
}

const (
	metaPrefetch uint64 = 1 // filled by a prefetch, not yet demand-referenced
	metaDirty    uint64 = 2 // written back on eviction
	useShift            = 2 // lastUse sits above the two flag bits
)

// Cache is one level of the hierarchy. Not safe for concurrent use; the
// simulator is single-threaded per machine.
type Cache struct {
	cfg      Config
	lines    []line // set i is lines[i<<wayShift:][:Assoc]
	numSets  int
	idxMask  uint64
	blkShift uint
	setShift uint // log2(numSets), precomputed: tag() runs on every access
	tagShift uint // blkShift + setShift
	wayShift uint // log2(Assoc)
	useClock uint64
	stats    Stats
}

// New builds a cache from cfg, panicking on invalid configuration (a
// programming error: configurations are static).
func New(cfg Config) *Cache {
	c := &Cache{}
	c.Reset(cfg)
	return c
}

// Reset reinitializes the cache in place to the empty state of New(cfg),
// reusing the line array when the way count is unchanged. Fresh
// construction and arena reuse share this one code path, so a Reset cache
// is bit-identical to a new one by construction.
func (c *Cache) Reset(cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ways := cfg.SizeBytes / cfg.BlockBytes
	numSets := ways / cfg.Assoc
	c.cfg = cfg
	c.numSets = numSets
	c.idxMask = uint64(numSets - 1)
	c.blkShift = log2(uint64(cfg.BlockBytes))
	c.setShift = log2(uint64(numSets))
	c.tagShift = c.blkShift + c.setShift
	c.wayShift = log2(uint64(cfg.Assoc))
	c.useClock = 0
	c.stats = Stats{}
	if len(c.lines) == ways {
		clear(c.lines)
	} else {
		c.lines = make([]line, ways)
	}
}

func log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// BlockAddr maps a byte address to its block-aligned address.
func (c *Cache) BlockAddr(addr uint64) uint64 {
	return addr >> c.blkShift << c.blkShift
}

// SetIndex returns the set an address maps to (exported for the
// Time-Keeping prefetcher's per-set history).
func (c *Cache) SetIndex(addr uint64) uint64 {
	return (addr >> c.blkShift) & c.idxMask
}

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.numSets }

func (c *Cache) tag(addr uint64) uint64 {
	return addr >> c.tagShift
}

// set returns the ways of set idx.
func (c *Cache) set(idx uint64) []line {
	i := int(idx) << c.wayShift
	return c.lines[i : i+c.cfg.Assoc]
}

// Access looks up addr, updating recency, dirtiness and statistics.
// It returns true on a hit. On a miss the caller is responsible for
// arranging the fill (via the MSHR and lower hierarchy) and then calling
// Fill.
func (c *Cache) Access(addr uint64, kind AccessKind) bool {
	c.stats.Accesses++
	if kind != Prefetch {
		c.stats.DemandAccesses++
	}
	set := c.set(c.SetIndex(addr))
	t := c.tag(addr)
	for i := range set {
		ln := &set[i]
		if ln.tag == t && ln.meta != 0 {
			c.stats.Hits++
			c.useClock++
			flags := ln.meta & (metaDirty | metaPrefetch)
			if kind == Write {
				flags |= metaDirty
			}
			if kind != Prefetch {
				flags &^= metaPrefetch
			}
			ln.meta = c.useClock<<useShift | flags
			return true
		}
	}
	c.stats.Misses++
	switch kind {
	case Prefetch:
		c.stats.PrefetchMisses++
	default:
		c.stats.DemandMisses++
	}
	return false
}

// Probe reports whether addr is present without updating recency or
// statistics. Used by prefetchers to filter redundant requests.
func (c *Cache) Probe(addr uint64) bool {
	set := c.set(c.SetIndex(addr))
	t := c.tag(addr)
	for i := range set {
		if set[i].tag == t && set[i].meta != 0 {
			return true
		}
	}
	return false
}

// Eviction describes a block displaced by a Fill.
type Eviction struct {
	// Valid is false when the fill used an empty way.
	Valid bool
	// Addr is the block address of the victim.
	Addr uint64
	// Dirty indicates the victim must be written back.
	Dirty bool
	// WasPrefetch indicates the victim was prefetched and never used.
	WasPrefetch bool
}

// Fill installs the block containing addr, evicting the LRU way if the set
// is full. asWrite installs the block dirty (write-allocate store miss);
// asPrefetch marks it as a not-yet-used prefetch block. Dirty victims count
// as writebacks.
func (c *Cache) Fill(addr uint64, asWrite, asPrefetch bool) Eviction {
	c.stats.Fills++
	idx := c.SetIndex(addr)
	set := c.set(idx)
	t := c.tag(addr)
	// Victim selection: the smallest meta is the first empty way, otherwise
	// the least recently used one.
	victim := 0
	for i := range set {
		ln := &set[i]
		if ln.tag == t && ln.meta != 0 {
			// Already present (e.g., a racing prefetch filled it first).
			c.useClock++
			flags := ln.meta & (metaDirty | metaPrefetch)
			if asWrite {
				flags |= metaDirty
			}
			ln.meta = c.useClock<<useShift | flags
			return Eviction{}
		}
		if ln.meta < set[victim].meta {
			victim = i
		}
	}
	ev := Eviction{}
	v := &set[victim]
	if v.meta != 0 {
		ev = Eviction{
			Valid:       true,
			Addr:        c.reconstruct(v.tag, idx),
			Dirty:       v.meta&metaDirty != 0,
			WasPrefetch: v.meta&metaPrefetch != 0,
		}
		c.stats.Evictions++
		if ev.Dirty {
			c.stats.Writebacks++
		}
	}
	c.useClock++
	meta := c.useClock << useShift
	if asWrite {
		meta |= metaDirty
	}
	if asPrefetch {
		meta |= metaPrefetch
	}
	*v = line{tag: t, meta: meta}
	return ev
}

// Span is a byte range handed to Preload.
type Span struct {
	Base, Bytes uint64
}

// blocks returns how many blocks Preload installs for sp: one per
// BlockBytes step from Base while below Base+Bytes.
func (c *Cache) blocks(sp Span) uint64 {
	n := sp.Bytes >> c.blkShift
	if sp.Bytes&(uint64(c.cfg.BlockBytes)-1) != 0 {
		n++
	}
	return n
}

// Preload installs, clean and in order, the blocks holding Base,
// Base+BlockBytes, … below Base+Bytes of each span, leaving the cache
// exactly as successive Fill(a, false, false) calls would.
//
// On an empty cache, when no span runs past 2^64-1 and no block lies in
// two spans, it writes each set's ways directly in one pass over the sets:
// with every fill a new block and stamps increasing, true LRU is round
// robin, so the j-th block to land in a set takes way j mod Assoc and
// stamps it with its position in the fill sequence plus one. Any other
// input falls back to Fill per block.
func (c *Cache) Preload(spans []Span) {
	if c.useClock != 0 || !c.placeable(spans) {
		for _, sp := range spans {
			for i, n := uint64(0), c.blocks(sp); i < n; i++ {
				c.Fill(sp.Base+i<<c.blkShift, false, false)
			}
		}
		return
	}
	var total uint64
	for _, sp := range spans {
		total += c.blocks(sp)
	}
	numSets, assoc := uint64(c.numSets), uint64(c.cfg.Assoc)
	for s := uint64(0); s < numSets; s++ {
		set := c.set(s)
		var j, pos uint64 // blocks landed in set s; fill position of sp's first block
		for _, sp := range spans {
			first, n := sp.Base>>c.blkShift, c.blocks(sp)
			for k := (s - first) & c.idxMask; k < n; k += numSets {
				set[j&(assoc-1)] = line{tag: (first + k) >> c.setShift, meta: (pos + k + 1) << useShift}
				j++
			}
			pos += n
		}
		if j > assoc {
			c.stats.Evictions += j - assoc
		}
	}
	c.stats.Fills += total
	c.useClock = total
}

// placeable reports whether every span's blocks stay below 2^64 and no
// block lies in two spans, the preconditions of Preload's direct path.
func (c *Cache) placeable(spans []Span) bool {
	maxBlock := ^uint64(0) >> c.blkShift
	for i, a := range spans {
		na := c.blocks(a)
		if na == 0 {
			continue
		}
		fa := a.Base >> c.blkShift
		if fa > maxBlock-(na-1) {
			return false
		}
		for _, b := range spans[:i] {
			nb := c.blocks(b)
			fb := b.Base >> c.blkShift
			if nb != 0 && fa <= fb+nb-1 && fb <= fa+na-1 {
				return false
			}
		}
	}
	return true
}

// Invalidate removes the block containing addr if present, returning whether
// it was present and dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	set := c.set(c.SetIndex(addr))
	t := c.tag(addr)
	for i := range set {
		ln := &set[i]
		if ln.tag == t && ln.meta != 0 {
			present, dirty = true, ln.meta&metaDirty != 0
			*ln = line{}
			return
		}
	}
	return false, false
}

func (c *Cache) reconstruct(tag, setIdx uint64) uint64 {
	return (tag<<c.setShift | setIdx) << c.blkShift
}

// ResetStats clears the counters (used at the end of warm-up).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Occupancy returns the number of valid lines (for tests and debugging).
func (c *Cache) Occupancy() int {
	n := 0
	for _, ln := range c.lines {
		if ln.meta != 0 {
			n++
		}
	}
	return n
}

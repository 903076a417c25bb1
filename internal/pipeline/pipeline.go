// Package pipeline models the Table 1 out-of-order superscalar core:
// 8-wide fetch/issue/commit, a 128-entry register update unit (RUU), a
// 64-entry load/store queue, the paper's functional-unit mix (8 integer
// ALUs, 2 integer mul/div, 4 FP ALUs, 4 FP mul/div), hybrid branch
// prediction with an 8-cycle misprediction penalty, and load/store timing
// through a pluggable memory port.
//
// The model is trace-driven: a workload generator supplies the dynamic
// instruction stream (internal/workload), so there is no wrong-path
// execution; mispredictions stall fetch until the branch resolves plus the
// misprediction penalty, the standard trace-driven approximation.
//
// The pipeline advances only on "pipeline edges" (every tick at full speed,
// every second tick in VSV's low-power mode); all its latencies are counted
// in pipeline cycles, so cache-hit and FU latencies measured in cycles are
// invariant across power modes exactly as §4.3 requires.
package pipeline

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/isa"
	"repro/internal/power"
)

// Config sets the core's geometry (defaults per Table 1).
type Config struct {
	FetchWidth  int
	DecodeWidth int
	IssueWidth  int
	CommitWidth int

	RUUSize        int
	LSQSize        int
	FetchQueueSize int

	IntALU    int
	IntMulDiv int
	FPAdd     int
	FPMulDiv  int

	// MispredictPenalty is the fetch-redirect penalty in pipeline cycles.
	MispredictPenalty int
	// FetchBlockBytes is the I-fetch granularity (the IL1 block size).
	FetchBlockBytes int
}

// DefaultConfig returns the paper's 8-way configuration.
func DefaultConfig() Config {
	return Config{
		FetchWidth:        8,
		DecodeWidth:       8,
		IssueWidth:        8,
		CommitWidth:       8,
		RUUSize:           128,
		LSQSize:           64,
		FetchQueueSize:    32,
		IntALU:            8,
		IntMulDiv:         2,
		FPAdd:             4,
		FPMulDiv:          4,
		MispredictPenalty: 8,
		FetchBlockBytes:   32,
	}
}

// Validate reports a configuration error, if any.
//
//vsv:coldpath
func (c Config) Validate() error {
	pos := func(vs ...int) bool {
		for _, v := range vs {
			if v < 1 {
				return false
			}
		}
		return true
	}
	if !pos(c.FetchWidth, c.DecodeWidth, c.IssueWidth, c.CommitWidth,
		c.RUUSize, c.LSQSize, c.FetchQueueSize,
		c.IntALU, c.IntMulDiv, c.FPAdd, c.FPMulDiv,
		c.MispredictPenalty, c.FetchBlockBytes) {
		return fmt.Errorf("pipeline: all configuration values must be >= 1")
	}
	if c.FetchBlockBytes&(c.FetchBlockBytes-1) != 0 {
		return fmt.Errorf("pipeline: fetch block %d not a power of two", c.FetchBlockBytes)
	}
	return nil
}

// InstSource supplies the dynamic instruction stream. Implementations are
// infinite (the simulator decides when to stop).
type InstSource interface {
	// Next fills in the next dynamic instruction.
	Next(inst *isa.Inst)
}

// IFetchResult is the memory port's answer to an instruction-block fetch.
type IFetchResult struct {
	// HitCycles is the access latency in pipeline cycles on a hit
	// (pipelined away in the front end; only misses stall fetch).
	HitCycles int
	// Async means a miss: fetch stalls until IFetchDone is called.
	Async bool
	// Stall means the request could not be accepted (MSHR full); retry
	// next cycle.
	Stall bool
}

// LoadResult is the memory port's answer to a data load.
type LoadResult struct {
	// HitCycles is the total load-to-use latency in pipeline cycles on a
	// hit (includes the cache or prefetch-buffer access).
	HitCycles int
	// Async means a miss: the load completes when LoadDone is called with
	// its token.
	Async bool
	// Stall means the request could not be accepted (MSHR full); the load
	// retries next cycle.
	Stall bool
	// BufferHit reports the access was satisfied by the prefetch buffer
	// (counted separately for power).
	BufferHit bool
}

// MemPort is the pipeline's view of the memory hierarchy; internal/sim
// implements it over the caches, MSHRs, bus and memory.
type MemPort interface {
	// IFetch requests the instruction block containing blockAddr.
	IFetch(blockAddr uint64, now int64) IFetchResult
	// Load requests data at addr. token identifies the load for LoadDone.
	// isPrefetch marks non-binding software prefetches.
	Load(addr uint64, token uint64, isPrefetch bool, now int64) LoadResult
	// StoreCommit performs a store's cache access at commit time. It
	// returns false if the access cannot be accepted yet (MSHR full);
	// commit retries next cycle.
	StoreCommit(addr uint64, now int64) bool
}

// Stats counts pipeline events.
type Stats struct {
	Steps       int64
	Fetched     uint64
	Dispatched  uint64
	Issued      uint64
	Completed   uint64
	Committed   uint64
	Branches    uint64
	Mispredicts uint64
	Loads       uint64
	Stores      uint64
	Prefetches  uint64
	LoadFwds    uint64
	// ZeroIssueCycles counts pipeline cycles with no issues (the signal the
	// down-FSM thresholds against).
	ZeroIssueCycles uint64
	// RUUFullStalls / LSQFullStalls count dispatch stalls.
	RUUFullStalls uint64
	LSQFullStalls uint64
	// FetchStallIL1 counts cycles fetch waited on an IL1 miss.
	FetchStallIL1 uint64
	// FetchStallBranch counts cycles fetch waited on a misprediction.
	FetchStallBranch uint64
	// StoreCommitStalls counts commit stalls on store MSHR pressure.
	StoreCommitStalls uint64
}

// IPC returns committed instructions per pipeline cycle.
func (s Stats) IPC() float64 {
	if s.Steps == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Steps)
}

// ruuEntry is one in-flight instruction.
type ruuEntry struct {
	valid bool
	seq   uint64
	inst  isa.Inst

	pendingSrcs int
	issued      bool
	completed   bool
	// execLeft counts down pipeline cycles after issue; the entry completes
	// when it reaches zero (loads that miss set waitingMem instead, until
	// LoadDone moves them to the filled list).
	execLeft   int
	waitingMem bool
	addrKnown  bool

	mispredicted bool
	dependents   []int
}

// StepResult summarizes one pipeline cycle for the VSV controller and the
// power model.
type StepResult struct {
	// Issued is the number of instructions issued this cycle (the FSMs'
	// input signal).
	Issued int
	// Committed is the number of instructions retired this cycle.
	Committed int
	// Activity is the power model's per-structure event record.
	Activity power.Activity
}

// Pipeline is the out-of-order core. Not safe for concurrent use.
type Pipeline struct {
	cfg  Config
	src  InstSource
	pred *branch.Predictor
	port MemPort

	step int64 // pipeline-cycle counter

	// RUU circular buffer.
	ruu   []ruuEntry
	head  int
	tail  int
	count int

	lsqCount int

	// Rename: architectural register → RUU index of last writer (-1 none).
	lastWriter [isa.NumRegs]int

	// Fetch queue: a fixed ring of FetchQueueSize slots holding fqLen
	// entries from fqHead on. Fetch writes the slot after the last entry;
	// dispatch pops fqHead.
	fq          []fqEntry
	fqHead      int
	fqLen       int
	pending     isa.Inst // next unfetched instruction (peeked from src)
	havePending bool

	// Fetch stall state.
	waitingIFetch   bool
	mispredictSeq   uint64
	haveMispredict  bool
	fetchResumeStep int64

	// FU pools: per-unit free-at step.
	fuFreeAt [isa.NumFUPools][]int64

	nextSeq uint64

	// storeQ is the in-flight stores in age order: pushed at dispatch,
	// popped at commit (stores retire strictly in order). Load issue scans
	// only this queue for memory disambiguation instead of the whole RUU
	// window. storeQHead indexes the oldest live entry.
	storeQ     []storeRef
	storeQHead int

	// ready has one bit per RUU slot, set while the entry is valid,
	// unissued and has no pending source operands; nReady counts the set
	// bits. Dispatch and wakeup set a bit, issue clears it, so the issue
	// stage visits only entries that can issue this cycle.
	ready  []uint64
	nReady int

	// execList lists RUU indices counting down their execution latency, so
	// writeback touches only executing entries instead of the full window.
	// filled lists loads whose memory data arrived (LoadDone); the next
	// writeback completes them. A load waiting on memory is in neither
	// list. Completion effects within a cycle commute, so list order is
	// as good as age order.
	execList []int32
	filled   []int32

	stats Stats
}

// storeRef is one in-flight store as seen by the issue-stage memory
// disambiguation scan. addrKnown is read live from the RUU entry (it flips
// when the store completes); block and seq are fixed at dispatch.
type storeRef struct {
	block uint64
	seq   uint64
	idx   int32
}

type fqEntry struct {
	inst      isa.Inst
	seq       uint64
	fetchedAt int64
	mispred   bool
}

// New builds a pipeline, panicking on invalid configuration.
func New(cfg Config, src InstSource, pred *branch.Predictor, port MemPort) *Pipeline {
	p := &Pipeline{}
	p.Reset(cfg, src, pred, port)
	return p
}

// Reset reinitializes the pipeline in place to the state of
// New(cfg, src, pred, port), reusing the RUU, fetch-queue, store-queue,
// FU-pool, ready-set and execution-list backing arrays when the geometry
// is unchanged. Per-entry dependent lists keep their backing across runs.
func (p *Pipeline) Reset(cfg Config, src InstSource, pred *branch.Predictor, port MemPort) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p.cfg = cfg
	p.src = src
	p.pred = pred
	p.port = port
	p.step = 0
	if len(p.ruu) != cfg.RUUSize {
		p.ruu = make([]ruuEntry, cfg.RUUSize)
		p.ready = make([]uint64, (cfg.RUUSize+63)/64)
		p.execList = make([]int32, 0, cfg.RUUSize)
		p.filled = make([]int32, 0, cfg.RUUSize)
	} else {
		for i := range p.ruu {
			clearRUUEntry(&p.ruu[i])
		}
		for i := range p.ready {
			p.ready[i] = 0
		}
		p.execList = p.execList[:0]
		p.filled = p.filled[:0]
	}
	p.nReady = 0
	p.head, p.tail, p.count = 0, 0, 0
	p.lsqCount = 0
	for i := range p.lastWriter {
		p.lastWriter[i] = -1
	}
	if len(p.fq) != cfg.FetchQueueSize {
		p.fq = make([]fqEntry, cfg.FetchQueueSize)
	}
	p.fqHead, p.fqLen = 0, 0
	p.pending = isa.Inst{}
	p.havePending = false
	p.waitingIFetch = false
	p.mispredictSeq = 0
	p.haveMispredict = false
	p.fetchResumeStep = 0
	p.fuFreeAt[isa.FUIntALU] = resetI64(p.fuFreeAt[isa.FUIntALU], cfg.IntALU)
	p.fuFreeAt[isa.FUIntMulDiv] = resetI64(p.fuFreeAt[isa.FUIntMulDiv], cfg.IntMulDiv)
	p.fuFreeAt[isa.FUFPAdd] = resetI64(p.fuFreeAt[isa.FUFPAdd], cfg.FPAdd)
	p.fuFreeAt[isa.FUFPMulDiv] = resetI64(p.fuFreeAt[isa.FUFPMulDiv], cfg.FPMulDiv)
	p.nextSeq = 0
	if cap(p.storeQ) < cfg.LSQSize {
		p.storeQ = make([]storeRef, 0, cfg.LSQSize)
	} else {
		p.storeQ = p.storeQ[:0]
	}
	p.storeQHead = 0
	p.stats = Stats{}
}

// clearRUUEntry zeroes an RUU entry in place, keeping the dependents
// backing array so steady-state reuse allocates nothing.
func clearRUUEntry(e *ruuEntry) {
	deps := e.dependents[:0]
	*e = ruuEntry{dependents: deps}
}

// resetI64 returns a zeroed slice of exactly n entries, reusing s's
// backing when its length already matches.
func resetI64(s []int64, n int) []int64 {
	if len(s) != n {
		return make([]int64, n)
	}
	for i := range s {
		s[i] = 0
	}
	return s
}

// Config returns the pipeline configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Stats returns a snapshot of the counters.
func (p *Pipeline) Stats() Stats { return p.stats }

// ResetStats clears the counters at the end of warm-up. Microarchitectural
// state (RUU contents, predictor training, fetch position) persists.
func (p *Pipeline) ResetStats() { p.stats = Stats{} }

// Committed returns the number of retired instructions.
func (p *Pipeline) Committed() uint64 { return p.stats.Committed }

// RUUOccupancy returns the number of in-flight instructions (for tests).
func (p *Pipeline) RUUOccupancy() int { return p.count }

// LSQOccupancy returns the number of in-flight memory ops (for tests).
func (p *Pipeline) LSQOccupancy() int { return p.lsqCount }

// LoadDone signals that the async load identified by token (its RUU
// index) has its data. The load completes at the next pipeline edge
// (modeling the fill/bypass synchronization at the cache boundary).
func (p *Pipeline) LoadDone(token uint64) {
	if token >= uint64(len(p.ruu)) {
		return
	}
	e := &p.ruu[token]
	if !e.waitingMem {
		return
	}
	e.waitingMem = false
	p.filled = append(p.filled, int32(token))
}

// IFetchDone signals that the outstanding instruction-fetch miss filled.
func (p *Pipeline) IFetchDone() { p.waitingIFetch = false }

package sim

import (
	"time"

	"repro/internal/branch"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/prefetch"
	"repro/internal/trace"
)

// l2Event is a pending access to the L2 array. The L2 runs on its own
// full-speed VDDH clock, so its latency is in ticks; the miss-detection
// point is conservatively one full L2-hit latency after the access starts
// (§5, "the latency to detect an L2 miss is as long as the L2 cache hit
// latency").
type l2Event struct {
	block    uint64
	readyAt  int64
	write    bool // a writeback from the DL1 (no fill, no response)
	prefetch bool // software or hardware prefetch (never triggers VSV)
	fillBuf  bool // Time-Keeping request: fill the prefetch buffer
}

// MachineStats aggregates machine-level counters for one measurement
// window.
type MachineStats struct {
	Ticks          int64
	DemandL2Misses uint64
	L2Accesses     uint64
	TKPrefetches   uint64
	RetriedL2Full  uint64
}

// Machine is the composed processor + memory system.
type Machine struct {
	cfg Config

	pred *branch.Predictor
	pipe *pipeline.Pipeline

	il1, dl1, l2             *cache.Cache
	il1MSHR, dl1MSHR, l2MSHR *cache.MSHRFile

	bus *bus.Bus
	mem *mem.Memory
	pow *power.Model

	ctl   *core.Controller
	tk    *prefetch.TimeKeeping
	tkBuf *prefetch.Buffer
	rec   *trace.Recorder

	// ctlKept, tkKept and tkBufKept hold the controller and the
	// Time-Keeping prefetcher and buffer once built, including across runs
	// whose configuration detaches them (ctl, tk, tkBuf nil), so a later
	// run that attaches them again resets them in place instead of
	// rebuilding their tables.
	ctlKept   *core.Controller
	tkKept    *prefetch.TimeKeeping
	tkBufKept *prefetch.Buffer

	now         int64
	l2Events    []l2Event
	l2Ready     []l2Event // scratch
	nextL2Ready int64     // min readyAt over l2Events; valid iff len(l2Events) > 0

	missDetected bool
	missReturned bool

	// spans is Reset's scratch list of the prewarm ranges handed to
	// Cache.Preload.
	spans []cache.Span

	// tkFillPending is the set of blocks whose in-flight L2 miss should
	// fill the prefetch buffer on arrival. It is bounded by the L2 MSHR
	// capacity, so a linear-scanned slice beats a map on the tick path.
	tkFillPending []uint64

	// txnFree pools bus transactions so the steady-state miss path does not
	// allocate; completions dispatch through TransactionDone instead of
	// per-transaction closures.
	txnFree []*bus.Transaction

	// inj, when non-nil, is the deterministic fault injector (Config.Faults).
	// stalled holds bus transactions the injector is delaying before they
	// reach the bus queue; nextStalledRelease is their earliest release tick
	// (valid iff len(stalled) > 0).
	inj                *faults.Injector
	stalled            []stalledTxn
	nextStalledRelease int64

	// wallDeadline and stop are cooperative run-control knobs (see
	// WithWallDeadline / WithStop); both are polled every pollTicks ticks.
	wallDeadline time.Time
	stop         <-chan struct{}

	stats              MachineStats
	rampsBaseline      uint64
	missesAtTickStart  uint64
	energyAtTickStart  float64
	commitsAtTickStart uint64
	lastEnergySeen     float64

	lastCommitTick int64
}

// stalledTxn is a bus transaction the fault injector is holding back.
type stalledTxn struct {
	t         *bus.Transaction
	releaseAt int64
}

// NewMachine builds a machine running src on the given configuration. It
// panics on invalid configuration and is retained only for static-data
// configurations (table-driven tests, benchmarks) where an invalid value is
// a programming error — typically passing the unusable zero Config. Runtime
// construction should go through New or NewBench, which surface the
// validation error instead.
func NewMachine(cfg Config, src pipeline.InstSource) *Machine {
	m, err := build(cfg, src)
	if err != nil {
		panic(err)
	}
	return m
}

// build composes and validates the machine; every constructor funnels here.
// Construction is Reset on a zero machine, so fresh and arena-reused
// machines share one initialization path and are bit-identical by
// construction (DESIGN.md §11).
func build(cfg Config, src pipeline.InstSource) (*Machine, error) {
	m := &Machine{}
	if err := m.Reset(cfg, src); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset reinitializes the machine in place to run src under cfg, exactly
// as if freshly constructed, while reusing every backing array the previous
// run left behind: cache line arrays, MSHR entry pools, the pipeline's RUU
// and queue backings, the Time-Keeping block-state pool and timing-wheel
// ring, recorder sample buffers, and the pooled bus transactions. Optional
// subsystems (VSV controller, Time-Keeping, recorder, fault injector) are
// attached, recycled or detached to match cfg; a detached controller or
// Time-Keeping unit stays kept for the next run that attaches it. On error
// the machine must not be reused without a further successful Reset.
//
// The campaign sweep engine calls this between memo-missed runs so a
// worker's arena is recycled instead of reallocated; see internal/sweep.
//
//vsv:hotpath
func (m *Machine) Reset(cfg Config, src pipeline.InstSource) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	m.cfg = cfg
	if m.pred == nil {
		m.pred = branch.New(cfg.Branch)
	} else {
		m.pred.Reset(cfg.Branch)
	}
	m.il1 = resetCache(m.il1, cfg.IL1)
	m.dl1 = resetCache(m.dl1, cfg.DL1)
	m.l2 = resetCache(m.l2, cfg.L2)
	m.il1MSHR = resetMSHR(m.il1MSHR, "IL1", cfg.IL1.MSHREntries)
	m.dl1MSHR = resetMSHR(m.dl1MSHR, "DL1", cfg.DL1.MSHREntries)
	m.l2MSHR = resetMSHR(m.l2MSHR, "L2", cfg.L2.MSHREntries)
	if m.bus == nil {
		m.bus = bus.New(cfg.Bus)
	} else {
		m.bus.Reset(cfg.Bus)
	}
	if m.mem == nil {
		m.mem = mem.New(cfg.Mem)
	} else {
		m.mem.Reset(cfg.Mem)
	}
	if m.pow == nil {
		m.pow = power.NewModel(cfg.Power, cfg.Pipeline.IssueWidth)
	} else {
		m.pow.Reinit(cfg.Power, cfg.Pipeline.IssueWidth)
	}
	if m.pipe == nil {
		m.pipe = pipeline.New(cfg.Pipeline, src, m.pred, m)
	} else {
		m.pipe.Reset(cfg.Pipeline, src, m.pred, m)
	}
	m.spans = m.spans[:0]
	for _, pr := range cfg.Prewarm {
		m.spans = append(m.spans, cache.Span{Base: pr.Base, Bytes: pr.Bytes})
	}
	m.l2.Preload(m.spans)
	m.spans = m.spans[:0]
	for _, pr := range cfg.Prewarm {
		if pr.IntoL1 {
			m.spans = append(m.spans, cache.Span{Base: pr.Base, Bytes: pr.Bytes})
		}
	}
	m.dl1.Preload(m.spans)
	m.ctl, m.tk, m.tkBuf = nil, nil, nil
	if cfg.VSV != nil {
		if m.ctlKept == nil {
			m.ctlKept = core.New(cfg.VSV.Policy, cfg.VSV.Timing)
		} else {
			m.ctlKept.Reset(cfg.VSV.Policy, cfg.VSV.Timing)
		}
		m.ctl = m.ctlKept
	}
	if tc := cfg.TimeKeeping; tc != nil {
		if m.tkKept == nil {
			m.tkKept = prefetch.New(*tc)
			m.tkBufKept = prefetch.NewBuffer(tc.BufferEntries, tc.BufferLatency)
		} else {
			m.tkKept.Reset(*tc)
			m.tkBufKept.Reset(tc.BufferEntries, tc.BufferLatency)
		}
		m.tk, m.tkBuf = m.tkKept, m.tkBufKept
	}
	if cfg.TraceInterval > 0 {
		maxS := cfg.TraceSamples
		if maxS <= 0 {
			maxS = 4096
		}
		if m.rec == nil {
			m.rec = trace.NewRecorder(cfg.TraceInterval, maxS)
		} else {
			m.rec.Reinit(cfg.TraceInterval, maxS)
		}
	} else {
		m.rec = nil
	}
	if cfg.Faults != nil {
		if m.inj == nil {
			inj, err := faults.NewInjector(cfg.Faults)
			if err != nil {
				return err
			}
			m.inj = inj
		} else if err := m.inj.Reset(cfg.Faults); err != nil {
			return err
		}
	} else {
		m.inj = nil
	}

	// Machine-level per-run state. The transaction pool survives: its
	// entries' Done completer points at this machine, which is stable, and
	// getTxn overwrites Block/Kind on reuse.
	m.now = 0
	m.l2Events = m.l2Events[:0]
	m.l2Ready = m.l2Ready[:0]
	m.nextL2Ready = 0
	m.missDetected = false
	m.missReturned = false
	m.tkFillPending = m.tkFillPending[:0]
	m.stalled = m.stalled[:0]
	m.nextStalledRelease = 0
	m.wallDeadline = time.Time{}
	m.stop = nil
	m.stats = MachineStats{}
	m.rampsBaseline = 0
	m.missesAtTickStart = 0
	m.energyAtTickStart = 0
	m.commitsAtTickStart = 0
	m.lastEnergySeen = 0
	m.lastCommitTick = 0
	return nil
}

// resetCache recycles c for cfg, constructing on first use.
func resetCache(c *cache.Cache, cfg cache.Config) *cache.Cache {
	if c == nil {
		return cache.New(cfg)
	}
	c.Reset(cfg)
	return c
}

// resetMSHR recycles f, constructing on first use.
func resetMSHR(f *cache.MSHRFile, name string, max int) *cache.MSHRFile {
	if f == nil {
		return cache.NewMSHRFile(name, max)
	}
	f.Reset(name, max)
	return f
}

// Recorder returns the time-series recorder (nil unless TraceInterval was
// set).
func (m *Machine) Recorder() *trace.Recorder { return m.rec }

// Controller returns the VSV controller (nil on baseline machines).
func (m *Machine) Controller() *core.Controller { return m.ctl }

// Pipeline returns the core (for tests and diagnostics).
func (m *Machine) Pipeline() *pipeline.Pipeline { return m.pipe }

// Power returns the power model.
func (m *Machine) Power() *power.Model { return m.pow }

// Caches returns (IL1, DL1, L2) for diagnostics.
func (m *Machine) Caches() (il1, dl1, l2 *cache.Cache) { return m.il1, m.dl1, m.l2 }

// Stats returns the machine-level counters.
func (m *Machine) Stats() MachineStats { return m.stats }

// FaultInjector returns the fault injector (nil unless Config.Faults was
// set) for inspecting the injection log.
func (m *Machine) FaultInjector() *faults.Injector { return m.inj }

// ---------------------------------------------------------------- ticks --

// tick advances the whole machine by one nanosecond.
//
//vsv:hotpath
func (m *Machine) tick() {
	now := m.now
	edge := true
	vdd := m.cfg.Power.VDDH
	if m.ctl != nil {
		edge = m.ctl.BeginTick(now)
		vdd = m.ctl.VDD()
	}
	if m.inj != nil {
		m.inj.Tick(now)
		if edge && m.inj.IssueFrozen() {
			// Commit starvation: the pipeline loses its clock edge (the
			// controller still observes the tick as a zero-issue edge).
			edge = false
		}
	}

	m.missDetected = false
	m.missReturned = false
	m.missesAtTickStart = m.stats.DemandL2Misses

	// Memory side: always at full speed.
	m.bus.Tick(now)
	m.mem.Tick(now)
	if len(m.stalled) > 0 {
		m.releaseStalled(now)
	}
	m.processL2Events(now)
	m.tkTick(now)

	// Pipeline side: only on edges.
	issued := 0
	if edge {
		r := m.pipe.Step(now)
		issued = r.Issued
		if r.Committed > 0 {
			m.lastCommitTick = now
		}
		m.pow.Tick(true, vdd, &r.Activity)
	} else {
		m.pow.Tick(false, vdd, nil)
	}

	if m.rec != nil {
		mode, slow := "high", false
		if m.ctl != nil {
			mode, slow = m.ctl.Mode().String(), m.ctl.HalfSpeed()
		}
		energy := m.pow.TotalEnergy()
		commits := m.pipe.Committed()
		m.rec.Observe(now, energy-m.energyAtTickStart, commits-m.commitsAtTickStart,
			vdd, mode, slow, m.stats.DemandL2Misses-m.missesAtTickStart)
		m.energyAtTickStart = energy
		m.commitsAtTickStart = commits
	}

	if m.ctl != nil {
		outstanding := m.l2MSHR.DemandOutstanding()
		if m.cfg.VSV.TriggerOnPrefetch {
			// §4.2 ablation: the controller cannot distinguish prefetch
			// misses, so it sees every outstanding miss.
			outstanding = m.l2MSHR.Used()
		}
		obs := core.Observation{
			Issued:            issued,
			MissDetected:      m.missDetected,
			MissReturned:      m.missReturned,
			OutstandingDemand: outstanding,
		}
		if m.inj != nil {
			m.inj.PerturbObservation(now, m.ctl.Mode(), &obs)
		}
		m.ctl.EndTick(now, obs)
		if m.inj != nil {
			m.inj.NoteMode(m.ctl.Mode())
		}
	}

	if m.cfg.SelfCheck {
		m.selfCheck(now)
	}

	m.stats.Ticks++
	m.now++
}

// Run executes warm-up then the measurement window and returns results.
func (m *Machine) Run(benchmark string) Results {
	m.runUntil(m.cfg.WarmupInstructions)
	m.resetStats()
	start := m.pipe.Committed()
	m.runUntil(start + m.cfg.MeasureInstructions)
	return m.results(benchmark)
}

func (m *Machine) runUntil(committed uint64) {
	slow := m.cfg.ForceSlowTick
	poll := 0
	for m.pipe.Committed() < committed {
		if !slow {
			m.fastForward()
		}
		m.tick()
		if m.cfg.WatchdogTicks > 0 && m.now-m.lastCommitTick > m.cfg.WatchdogTicks {
			panic(m.failure(FailWatchdog, m.now,
				"no commit for %d ticks", m.cfg.WatchdogTicks))
		}
		if poll++; poll >= runPollInterval {
			poll = 0
			m.checkRunControl()
		}
	}
}

// runPollInterval is how many loop iterations pass between cooperative
// checks of the stop channel and the wall-clock deadline — frequent enough
// to cancel a run within milliseconds, rare enough to cost nothing.
const runPollInterval = 4096

// checkRunControl polls the run-control knobs (WithStop, WithWallDeadline)
// and raises the corresponding structured failure.
func (m *Machine) checkRunControl() {
	if m.stop != nil {
		select {
		case <-m.stop:
			panic(m.failure(FailAborted, m.now, "run stopped"))
		default:
		}
	}
	//vsvlint:ignore determinism the wall-clock deadline is run control (WithWallDeadline), not simulated time; it aborts the run rather than influencing results
	if !m.wallDeadline.IsZero() && time.Now().After(m.wallDeadline) {
		panic(m.failure(FailDeadline, m.now, "wall-clock deadline exceeded"))
	}
}

func (m *Machine) resetStats() {
	m.pipe.ResetStats()
	m.il1.ResetStats()
	m.dl1.ResetStats()
	m.l2.ResetStats()
	m.pow.Reset()
	m.pred.ResetStats()
	if m.rec != nil {
		m.rec.Reset()
		m.energyAtTickStart = 0
		m.commitsAtTickStart = m.pipe.Committed()
	}
	m.lastEnergySeen = 0
	if m.ctl != nil {
		m.ctl.ResetStats()
		m.rampsBaseline = 0
	}
	m.stats = MachineStats{}
}

// ------------------------------------------------------------- L2 side --

func (m *Machine) scheduleL2(block uint64, write, isPrefetch, fillBuf bool) {
	readyAt := m.now + int64(m.cfg.L2.HitLatency)
	if m.inj != nil {
		// Fault injection: a delayed L2 access also reorders it relative
		// to accesses scheduled after it (processL2Events gates on
		// readyAt, not insertion order).
		readyAt += m.inj.L2Delay(m.now)
	}
	m.pushL2Event(l2Event{
		block:    block,
		readyAt:  readyAt,
		write:    write,
		prefetch: isPrefetch,
		fillBuf:  fillBuf,
	})
}

// pushL2Event enqueues e, maintaining the nextL2Ready watermark so the
// per-tick processL2Events scan can skip when nothing is due.
func (m *Machine) pushL2Event(e l2Event) {
	if len(m.l2Events) == 0 || e.readyAt < m.nextL2Ready {
		m.nextL2Ready = e.readyAt
	}
	m.l2Events = append(m.l2Events, e)
}

func (m *Machine) processL2Events(now int64) {
	if len(m.l2Events) == 0 || now < m.nextL2Ready {
		return
	}
	m.l2Ready = m.l2Ready[:0]
	keep := m.l2Events[:0]
	const maxInt64 = 1<<63 - 1
	next := int64(maxInt64)
	for _, e := range m.l2Events {
		if e.readyAt <= now {
			m.l2Ready = append(m.l2Ready, e)
		} else {
			keep = append(keep, e)
			if e.readyAt < next {
				next = e.readyAt
			}
		}
	}
	m.l2Events = keep
	m.nextL2Ready = next
	for _, e := range m.l2Ready {
		m.handleL2Access(e, now)
	}
}

// ------------------------------------------- TK fill-pending set ---------

func (m *Machine) tkFillPendingHas(block uint64) bool {
	for _, b := range m.tkFillPending {
		if b == block {
			return true
		}
	}
	return false
}

func (m *Machine) tkFillPendingAdd(block uint64) {
	if !m.tkFillPendingHas(block) {
		m.tkFillPending = append(m.tkFillPending, block)
	}
}

func (m *Machine) tkFillPendingDel(block uint64) {
	for i, b := range m.tkFillPending {
		if b == block {
			last := len(m.tkFillPending) - 1
			m.tkFillPending[i] = m.tkFillPending[last]
			m.tkFillPending = m.tkFillPending[:last]
			return
		}
	}
}

func (m *Machine) handleL2Access(e l2Event, now int64) {
	m.pow.L2Access()
	m.stats.L2Accesses++
	if e.write {
		// DL1 writeback: set dirty on hit; forward to memory on miss.
		if !m.l2.Access(e.block, cache.Write) {
			m.l2.Fill(e.block, true, false) // victim-writeback allocate
		}
		return
	}
	kind := cache.Read
	if e.prefetch {
		kind = cache.Prefetch
	}
	if m.l2.Access(e.block, kind) {
		m.deliverFill(e.block, e.fillBuf)
		return
	}
	// L2 miss detected (one hit-latency after the access started).
	if !e.prefetch {
		m.missDetected = true
		m.stats.DemandL2Misses++
	} else if m.cfg.VSV != nil && m.cfg.VSV.TriggerOnPrefetch {
		// §4.2 ablation: prefetch misses also signal the controller.
		m.missDetected = true
	}
	if e.fillBuf {
		m.tkFillPendingAdd(e.block)
	}
	_, merged, ok := m.l2MSHR.Allocate(e.block, -1, kind, now)
	if !ok {
		// L2 MSHR full: drop prefetches, retry demand accesses shortly.
		if e.prefetch {
			m.tkFillPendingDel(e.block)
			if le := m.dl1MSHR.Lookup(e.block); le != nil {
				if le.IsPrefetchOnly() {
					// Clean up the L1-side entry so later demand requests
					// do not merge into a fill that will never arrive.
					m.dl1MSHR.Free(e.block)
				} else {
					// A demand access already merged behind this prefetch;
					// it must not be dropped — retry as a demand read.
					m.stats.RetriedL2Full++
					e.prefetch = false
					e.readyAt = now + 4
					m.pushL2Event(e)
				}
			}
			return
		}
		m.stats.RetriedL2Full++
		e.readyAt = now + 4
		m.pushL2Event(e)
		return
	}
	if merged {
		return
	}
	m.submitBus(m.getTxn(e.block, bus.Request), now)
}

func (m *Machine) submitBus(t *bus.Transaction, now int64) {
	if m.inj != nil {
		if d := m.inj.BusDelay(now); d > 0 {
			releaseAt := now + d
			if len(m.stalled) == 0 || releaseAt < m.nextStalledRelease {
				m.nextStalledRelease = releaseAt
			}
			m.stalled = append(m.stalled, stalledTxn{t: t, releaseAt: releaseAt})
			return
		}
	}
	m.pow.BusTransaction()
	m.bus.Submit(t, now)
}

// releaseStalled re-submits fault-stalled bus transactions whose delay has
// matured. Power is charged at release, when the wires actually move; the
// release bypasses the injector so a transaction stalls at most once.
func (m *Machine) releaseStalled(now int64) {
	if now < m.nextStalledRelease {
		return
	}
	next := int64(1) << 62
	kept := m.stalled[:0]
	for _, st := range m.stalled {
		if st.releaseAt <= now {
			m.pow.BusTransaction()
			m.bus.Submit(st.t, now)
			continue
		}
		if st.releaseAt < next {
			next = st.releaseAt
		}
		kept = append(kept, st)
	}
	m.stalled = kept
	m.nextStalledRelease = next
}

// getTxn takes a pooled bus transaction (completions come back through
// TransactionDone, which recycles it).
func (m *Machine) getTxn(block uint64, kind bus.Kind) *bus.Transaction {
	if n := len(m.txnFree); n > 0 {
		t := m.txnFree[n-1]
		m.txnFree = m.txnFree[:n-1]
		t.Block, t.Kind = block, kind
		return t
	}
	return &bus.Transaction{Block: block, Kind: kind, Done: m}
}

// TransactionDone implements bus.Completer: it advances a miss through the
// request → memory → response chain, replacing the closure-per-transaction
// scheme with pooled structs.
func (m *Machine) TransactionDone(t *bus.Transaction, finish int64) {
	block, kind := t.Block, t.Kind
	m.txnFree = append(m.txnFree, t)
	switch kind {
	case bus.Request:
		m.mem.ReadNotify(block, finish, m)
	case bus.Response:
		m.l2FillArrived(block, finish)
	case bus.Writeback:
		m.mem.Write(block, finish)
	}
}

// MemReadDone implements mem.ReadNotifier: the data is ready in memory, so
// schedule the response transfer back over the bus.
func (m *Machine) MemReadDone(block uint64, finish int64) {
	m.submitBus(m.getTxn(block, bus.Response), finish)
}

func (m *Machine) l2FillArrived(block uint64, now int64) {
	entry := m.l2MSHR.Free(block)
	demand := entry != nil && entry.DemandRefs > 0
	prefetchOnly := entry == nil || entry.IsPrefetchOnly()
	ev := m.l2.Fill(block, false, prefetchOnly)
	if ev.Valid && ev.Dirty {
		m.submitBus(m.getTxn(ev.Addr, bus.Writeback), now)
	}
	if demand {
		m.missReturned = true
	}
	m.deliverFill(block, m.tkFillPendingHas(block))
}

// deliverFill propagates a block arriving from the L2 (hit or fill) to the
// L1 side: prefetch buffer for Time-Keeping requests, the waiting L1 MSHRs
// otherwise. The DL1 install's prefetch bit comes from the DL1 MSHR entry
// itself (whether any demand request merged behind the prefetch), so the
// L2-side prefetch status needs no forwarding here.
func (m *Machine) deliverFill(block uint64, fillBuf bool) {
	if fillBuf {
		m.tkFillPendingDel(block)
		if m.tkBuf != nil {
			m.tkBuf.Insert(block)
		}
	}
	if e := m.dl1MSHR.Free(block); e != nil {
		ev := m.dl1.Fill(block, e.Write, e.IsPrefetchOnly())
		m.handleDL1Eviction(ev)
		if m.tk != nil {
			m.tk.OnFill(block, m.dl1.SetIndex(block), m.now)
		}
		for _, w := range e.Waiters {
			m.pipe.LoadDone(uint64(w))
		}
	}
	if e := m.il1MSHR.Free(block); e != nil {
		m.il1.Fill(block, false, false)
		m.pipe.IFetchDone()
	}
}

func (m *Machine) handleDL1Eviction(ev cache.Eviction) {
	if !ev.Valid {
		return
	}
	if m.tk != nil {
		m.tk.OnEvict(ev.Addr, m.dl1.SetIndex(ev.Addr), m.now)
	}
	if ev.Dirty {
		m.scheduleL2(ev.Addr, true, false, false)
	}
}

// ------------------------------------------------------ Time-Keeping ----

// tkTick drives the Time-Keeping prefetcher. The machine passes itself
// as the prefetch.Host window (set mapping + presence filtering) so the
// per-tick path carries no closures.
//
//vsv:hotpath
func (m *Machine) tkTick(now int64) {
	if m.tk == nil {
		return
	}
	targets := m.tk.Tick(now, m)
	for _, t := range targets {
		m.stats.TKPrefetches++
		m.scheduleL2(t, false, true, true)
	}
}

var _ prefetch.Host = (*Machine)(nil)

// BlockSet implements prefetch.Host: the DL1 set a block maps to.
func (m *Machine) BlockSet(block uint64) uint64 { return m.dl1.SetIndex(block) }

// BlockPresent implements prefetch.Host: whether a prefetch target is
// already covered by the DL1, the prefetch buffer, or an in-flight miss.
func (m *Machine) BlockPresent(block uint64) bool {
	return m.dl1.Probe(block) || m.tkBuf.Contains(block) ||
		m.dl1MSHR.Lookup(block) != nil || m.l2MSHR.Lookup(block) != nil ||
		m.tkFillPendingHas(block)
}

// ------------------------------------------------- pipeline.MemPort -----

var _ pipeline.MemPort = (*Machine)(nil)

// IFetch implements pipeline.MemPort.
func (m *Machine) IFetch(blockAddr uint64, now int64) pipeline.IFetchResult {
	if m.il1.Access(blockAddr, cache.Read) {
		return pipeline.IFetchResult{HitCycles: m.cfg.IL1.HitLatency}
	}
	_, merged, ok := m.il1MSHR.Allocate(blockAddr, -1, cache.Read, now)
	if !ok {
		return pipeline.IFetchResult{Stall: true}
	}
	if !merged {
		m.scheduleL2(blockAddr, false, false, false)
	}
	return pipeline.IFetchResult{Async: true}
}

// Load implements pipeline.MemPort.
func (m *Machine) Load(addr uint64, token uint64, isPrefetch bool, now int64) pipeline.LoadResult {
	block := m.dl1.BlockAddr(addr)
	if isPrefetch {
		if m.dl1.Access(addr, cache.Prefetch) {
			return pipeline.LoadResult{HitCycles: 1}
		}
		if m.tkBuf != nil && m.tkBuf.Contains(block) {
			return pipeline.LoadResult{HitCycles: 1}
		}
		_, merged, ok := m.dl1MSHR.Allocate(block, -1, cache.Prefetch, now)
		if ok && !merged {
			m.scheduleL2(block, false, true, false)
		}
		return pipeline.LoadResult{HitCycles: 1} // non-binding: drop if full
	}
	if m.dl1.Access(addr, cache.Read) {
		if m.tk != nil {
			m.tk.OnAccess(block, now)
		}
		return pipeline.LoadResult{HitCycles: m.cfg.DL1.HitLatency}
	}
	if m.tk != nil {
		m.tk.OnDemandMiss(block, m.dl1.SetIndex(addr))
	}
	if m.tkBuf != nil && m.tkBuf.Lookup(block) {
		ev := m.dl1.Fill(block, false, false)
		m.handleDL1Eviction(ev)
		if m.tk != nil {
			m.tk.OnFill(block, m.dl1.SetIndex(block), now)
		}
		return pipeline.LoadResult{HitCycles: m.tkBuf.Latency(), BufferHit: true}
	}
	_, merged, ok := m.dl1MSHR.Allocate(block, int(token), cache.Read, now)
	if !ok {
		return pipeline.LoadResult{Stall: true}
	}
	if !merged {
		m.scheduleL2(block, false, false, false)
	}
	return pipeline.LoadResult{Async: true}
}

// StoreCommit implements pipeline.MemPort.
func (m *Machine) StoreCommit(addr uint64, now int64) bool {
	block := m.dl1.BlockAddr(addr)
	if m.dl1.Access(addr, cache.Write) {
		if m.tk != nil {
			m.tk.OnAccess(block, now)
		}
		return true
	}
	if m.tk != nil {
		m.tk.OnDemandMiss(block, m.dl1.SetIndex(addr))
	}
	if m.tkBuf != nil && m.tkBuf.Lookup(block) {
		ev := m.dl1.Fill(block, true, false)
		m.handleDL1Eviction(ev)
		if m.tk != nil {
			m.tk.OnFill(block, m.dl1.SetIndex(block), now)
		}
		return true
	}
	_, merged, ok := m.dl1MSHR.Allocate(block, -1, cache.Write, now)
	if !ok {
		return false
	}
	if !merged {
		m.scheduleL2(block, false, false, false)
	}
	return true // write-allocate in flight; the store buffer absorbs it
}

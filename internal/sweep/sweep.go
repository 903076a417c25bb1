// Package sweep is the batch simulation engine behind every campaign: it
// takes a set of (benchmark × configuration) points, executes them with at
// most Workers simulations at once under context cancellation, and
// memoizes completed runs under a stable configuration hash so points
// repeated across experiments (for example the shared baselines of
// Figures 4–7) are simulated exactly once. Results come back in submission
// order regardless of scheduling, so campaign output is byte-identical for
// any worker count.
//
// Work is scoped in two layers. The Engine owns the shared resources — its
// machine arenas, the fingerprint-keyed memo cache and the optional ledger
// (the checkpoint, or the multi-process work-stealing file) — and survives
// across campaigns. It holds one arena per worker as a slot: a run takes a
// slot immediately before it simulates and hands it back when the run
// ends, so every job, RunAll call and artefact on the engine shares one
// bound of Workers simulations, and consecutive memo-missed runs recycle
// a slot's machine in place (Machine.Reset) instead of reallocating tens
// of megabytes of simulator state per point. A Job (NewJob) is one
// campaign's view of the engine: it carries its own progress callback and
// its own Stats, so two jobs running concurrently on one engine share the
// cache without interleaving each other's counters. RunAll is the
// primitive (every point's individual outcome, in submission order); Run
// and RunMap are thin wrappers over it.
//
// One mutex, Engine.mu, guards the memo cache and every counter. A run
// lasts milliseconds and takes it a handful of times, so it is not a
// contention point at any worker count the engine serves.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/failpoint"
	"repro/internal/sim"
)

// Point is one simulation of a campaign: a benchmark (and workload seed)
// on a machine configuration.
type Point struct {
	// Key labels the point in the caller's result map. It has no effect on
	// execution or memoization.
	Key string
	// Benchmark names the synthetic SPEC2K workload.
	Benchmark string
	// Seed selects the workload's pseudo-random streams (0 = canonical).
	Seed uint64
	// Config is the full machine configuration.
	Config sim.Config
}

// Stats aggregates counters across Run calls. Engine.Stats returns the
// engine's lifetime totals (every job summed); Job.Stats returns one job's
// share.
type Stats struct {
	// Points counts every submitted point; Ran counts the simulations that
	// actually executed; CacheHits counts points satisfied by a memoized
	// (or in-flight duplicate) run. For all-success campaigns,
	// Points == Ran + CacheHits + LedgerHits.
	Points, Ran, CacheHits int
	// LedgerHits counts points satisfied from the attached ledger
	// (completed by another worker process, or in an earlier lifetime of
	// this one); Steals counts expired foreign claims this engine took
	// over.
	LedgerHits, Steals int
	// Failed counts points that genuinely failed (cancellations are not
	// failures); Retried counts extra attempts spent on transient failures.
	Failed, Retried int
	// ArenaReuses counts run attempts that recycled one of the engine's
	// machine arenas in place (Machine.ResetBench); FreshBuilds counts the
	// ones that had to construct a machine. ArenaReuses + FreshBuilds is the
	// number of run attempts (Ran plus retries).
	ArenaReuses, FreshBuilds int
	// Evicted counts memo-cache entries dropped by the CacheBound policy.
	Evicted int
	// SimTime is the summed wall time of executed simulations; WorstRun is
	// the longest single simulation and WorstKey its point key.
	SimTime  time.Duration
	WorstRun time.Duration
	WorstKey string
}

// RunsPerSec returns executed simulations per second of simulation wall
// time — the engine's throughput over the work it actually did, independent
// of idle periods between campaigns. Zero until something has run.
func (s Stats) RunsPerSec() float64 {
	if s.SimTime <= 0 {
		return 0
	}
	return float64(s.Ran) / s.SimTime.Seconds()
}

// ReuseRate returns the fraction of run attempts that recycled an arena
// instead of constructing a machine (0 when nothing has run).
func (s Stats) ReuseRate() float64 {
	attempts := s.ArenaReuses + s.FreshBuilds
	if attempts == 0 {
		return 0
	}
	return float64(s.ArenaReuses) / float64(attempts)
}

// Progress is a point-in-time snapshot delivered to the progress callback
// after every completed simulation of a RunAll call.
type Progress struct {
	// Done and Total count points of the current RunAll call; CacheHits is
	// how many of Done were served from the memo cache.
	Done, Total, CacheHits int
	// SimsPerSec is executed simulations per wall-clock second since the
	// RunAll call started.
	SimsPerSec float64
	// WorstRun and WorstKey identify the slowest simulation so far (across
	// the owning job's lifetime).
	WorstRun time.Duration
	WorstKey string
}

// Option configures an Engine.
type Option func(*Engine)

// Workers bounds the engine's concurrent simulations (minimum 1) across
// every job and RunAll call on it: the engine holds n machine arenas, and a
// run simulates only while it holds one. The default is
// runtime.GOMAXPROCS(0).
func Workers(n int) Option {
	if n < 1 {
		n = 1
	}
	return func(e *Engine) { e.workers = n }
}

// OnProgress installs the engine's default progress callback, inherited by
// every job that does not set its own (JobProgress). It is invoked from
// worker goroutines (serialized per RunAll call, but concurrent with the
// caller), so it must be safe to call from another goroutine.
func OnProgress(fn func(Progress)) Option {
	return func(e *Engine) { e.progress = fn }
}

// WithoutCache disables memoization: every point runs, even duplicates.
func WithoutCache() Option {
	return func(e *Engine) { e.noCache = true }
}

// RunTimeout bounds each simulation's wall-clock time. A run past its
// deadline fails with a structured *sim.CheckError of kind FailDeadline —
// classified transient, so it is retried when Retries allows. Zero (the
// default) disables the bound.
func RunTimeout(d time.Duration) Option {
	return func(e *Engine) { e.runTimeout = d }
}

// Retries allows up to n extra attempts for transiently-failed points
// (currently: wall-clock deadline expiries), with linear backoff between
// attempts. Deterministic failures — self-check trips, watchdog expiries,
// validation errors, panics — are never retried.
func Retries(n int) Option {
	if n < 0 {
		n = 0
	}
	return func(e *Engine) { e.retries = n }
}

// ContinueOnError keeps the campaign draining after a point fails: the
// remaining points still execute and the failure is reported at the end (or
// per point, via RunAll). The default is fail-fast — the first failure
// cancels pending points and promptly aborts in-flight simulations through
// their stop channels.
func ContinueOnError() Option {
	return func(e *Engine) { e.keepGoing = true }
}

// WithLedger attaches a ledger: completed points are served from it,
// unclaimed points are claimed before they run (and completed into it
// afterwards), and points claimed by another live worker process are
// waited for — or stolen once the claim's deadline expires. A ledger only
// this process writes is a checkpoint: reopened, it resumes the campaign.
// The caller owns the ledger's lifetime. See Ledger.
func WithLedger(l *Ledger) Option {
	return func(e *Engine) { e.led = l }
}

// CacheBound bounds the memo cache to at most n entries. When an insertion
// would exceed the bound, the oldest-inserted completed entries are
// evicted first — deterministic FIFO, so a campaign replayed against a
// bounded engine hits and misses identically every time. In-flight entries
// are never evicted (waiters hold their done channels), so the cache may
// transiently exceed n while more than n runs are in flight. Zero or
// negative n (the default) leaves the cache unbounded.
func CacheBound(n int) Option {
	if n < 0 {
		n = 0
	}
	return func(e *Engine) { e.cacheBound = n }
}

// entry is one memoized (or in-flight) simulation.
type entry struct {
	res  sim.Results
	err  error
	done chan struct{} // closed once res/err are valid
}

// resolved reports whether the entry's run has finished (done closed). It
// is safe to call from any goroutine.
func (en *entry) resolved() bool {
	select {
	case <-en.done:
		return true
	default:
		return false
	}
}

// cacheRecord is one memo-cache insertion, in order, for FIFO eviction.
// The entry pointer distinguishes a fingerprint's current cache entry from
// a stale record left behind when a failed run uncached and a later
// campaign re-inserted the same fingerprint.
type cacheRecord struct {
	fp string
	en *entry
}

// arena is one of the engine's machine slots: a reusable simulation arena
// (caches, MSHRs, pipeline, recorder buffers, pooled transactions) that
// consecutive memo-missed runs reset in place instead of reallocating. A
// run owns the arena it took from Engine.slots until it sends it back.
type arena struct {
	m *sim.Machine
}

// Engine executes sweep points with at most Workers simulations at once
// and a memoization cache that persists across campaigns. An Engine is
// safe for concurrent use; concurrent campaigns share its cache (duplicate
// in-flight points are joined, not re-run) and its worker bound.
type Engine struct {
	workers    int
	progress   func(Progress)
	noCache    bool
	cacheBound int
	runTimeout time.Duration
	retries    int
	backoff    time.Duration
	keepGoing  bool
	led        *Ledger

	// slots holds the engine's arenas, one per worker. A run receives one
	// immediately before it simulates and sends it back when the run ends,
	// so the channel is the engine-wide bound on concurrent simulations.
	slots chan *arena

	// mu guards the memo cache and the counters of the engine and of every
	// job. It is held for map, slice and counter bookkeeping only — never
	// across I/O or a blocking channel operation. //vsv:hotlock
	mu    sync.Mutex
	cache map[string]*entry
	order []cacheRecord // insertion order, for bound eviction
	stats Stats
}

// New returns an engine with the given options applied.
func New(opts ...Option) *Engine {
	e := &Engine{
		workers: runtime.GOMAXPROCS(0),
		backoff: 50 * time.Millisecond,
		cache:   make(map[string]*entry),
	}
	for _, o := range opts {
		o(e)
	}
	// Arenas start empty and build their machine on first use, so an
	// engine constructs at most workers machines in its life; they are
	// garbage-collected with it.
	e.slots = make(chan *arena, e.workers)
	for i := 0; i < e.workers; i++ {
		e.slots <- &arena{}
	}
	return e
}

// acquire waits for a free arena slot. A wait cut short by the context
// returns its error, which fails the waiting item as a cancellation.
func (e *Engine) acquire(ctx context.Context) (*arena, error) {
	select {
	case a := <-e.slots:
		return a, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// addLocked inserts an entry under the bound policy. Caller holds e.mu.
func (e *Engine) addLocked(fp string, en *entry) {
	e.cache[fp] = en
	if e.cacheBound > 0 {
		e.order = append(e.order, cacheRecord{fp: fp, en: en})
		e.evictLocked()
	}
}

// evictLocked enforces the bound: while the cache is over it, the
// oldest-inserted resolved entries are dropped, skipping (and preserving
// the relative order of) in-flight ones. Stale records — fingerprints
// already uncached by a failure, or re-inserted under a newer entry — are
// compacted away as they are encountered. Caller holds e.mu.
func (e *Engine) evictLocked() {
	if e.cacheBound <= 0 || len(e.cache) <= e.cacheBound {
		return
	}
	kept := e.order[:0]
	for i, rec := range e.order {
		if len(e.cache) <= e.cacheBound {
			kept = append(kept, e.order[i:]...)
			break
		}
		if cur, ok := e.cache[rec.fp]; !ok || cur != rec.en {
			continue // stale record; nothing to evict
		}
		if !rec.en.resolved() {
			kept = append(kept, rec) // never evict an in-flight run
			continue
		}
		delete(e.cache, rec.fp)
		e.stats.Evicted++
	}
	e.order = kept
}

// Stats returns a snapshot of the engine's lifetime counters (every job's
// counters summed).
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// CacheLen returns how many fingerprints the memo cache currently holds
// (completed or in flight).
func (e *Engine) CacheLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cache)
}

// Job is one campaign's scoped view of an engine: it shares the engine's
// arena slots, memo cache and ledger, but owns its progress callback,
// its Stats and its run budget, so concurrent jobs on one engine do not
// interleave counters or callbacks. The zero value is not usable; call
// Engine.NewJob. A Job is safe for concurrent use (a job running several
// campaigns concurrently aggregates them into one set of counters).
type Job struct {
	e         *Engine
	progress  func(Progress)
	maxPoints int

	// stats holds the job's counters, guarded by e.mu and updated in the
	// same critical sections as the engine's (see tally).
	stats Stats
}

// JobOption configures a Job.
type JobOption func(*Job)

// JobProgress installs the job's progress callback, overriding the
// engine-level default. Same calling convention as OnProgress.
func JobProgress(fn func(Progress)) JobOption {
	return func(j *Job) { j.progress = fn }
}

// MaxPoints caps how many points the job may submit across all of its
// RunAll calls — the admission-control run budget. A call that would exceed
// the budget fails as a whole with a *BudgetError before simulating
// anything. Zero (the default) disables the cap.
func MaxPoints(n int) JobOption {
	if n < 0 {
		n = 0
	}
	return func(j *Job) { j.maxPoints = n }
}

// NewJob returns a job-scoped handle on the engine. Jobs inherit the
// engine's default progress callback unless JobProgress overrides it.
func (e *Engine) NewJob(opts ...JobOption) *Job {
	j := &Job{e: e, progress: e.progress}
	for _, o := range opts {
		o(j)
	}
	return j
}

// Stats returns a snapshot of the job's counters.
func (j *Job) Stats() Stats {
	j.e.mu.Lock()
	defer j.e.mu.Unlock()
	return j.stats
}

// tally applies one counter update to the engine's and the job's Stats in
// a single critical section.
func (j *Job) tally(add func(*Stats)) {
	j.e.mu.Lock()
	add(&j.e.stats)
	add(&j.stats)
	j.e.mu.Unlock()
}

// runItem is one simulation scheduled by a RunAll call.
type runItem struct {
	fp string
	p  Point
	en *entry
}

// PointResult is one point's outcome in a RunAll campaign: its results, or
// the error that prevented them (a *RunError for genuine failures, a
// cancellation error for points dropped by fail-fast or the caller's
// context).
type PointResult struct {
	Key string
	Res sim.Results
	Err error
}

// RunAll is the engine's primitive: it executes the points and returns
// every point's individual outcome in submission order — the
// graceful-degradation interface. With ContinueOnError, a campaign with
// failing points still yields results for every point that could run, each
// failure annotated in place; the default is fail-fast (the first genuine
// failure cancels pending points, which report cancellation errors). The
// returned error is only non-nil for planning problems (unhashable
// configurations, an exceeded run budget) — per-point failures live in the
// PointResults.
func (j *Job) RunAll(ctx context.Context, points []Point) ([]PointResult, error) {
	waiters, err := j.execute(ctx, points)
	if err != nil {
		return nil, err
	}
	out := make([]PointResult, len(points))
	for i, en := range waiters {
		<-en.done
		out[i] = PointResult{Key: points[i].Key, Res: en.res, Err: en.err}
	}
	return out, nil
}

// Run is a thin wrapper over RunAll for all-or-nothing campaigns: it
// returns just the results, in submission order, or the first genuine
// failure (a *RunError, in submission order). Cancellations are reported
// only when no genuine failure explains them.
func (j *Job) Run(ctx context.Context, points []Point) ([]sim.Results, error) {
	all, err := j.RunAll(ctx, points)
	if err != nil {
		return nil, err
	}
	out := make([]sim.Results, len(points))
	var cancelErr error
	for i, pr := range all {
		switch {
		case pr.Err == nil:
			out[i] = pr.Res
		case isCancel(pr.Err):
			if cancelErr == nil {
				cancelErr = fmt.Errorf("sweep: point %q: %w", points[i].Key, pr.Err)
			}
		default:
			return nil, pr.Err
		}
	}
	if cancelErr != nil {
		return nil, cancelErr
	}
	return out, nil
}

// RunMap is a thin wrapper over Run that keys the results by Point.Key.
func (j *Job) RunMap(ctx context.Context, points []Point) (map[string]sim.Results, error) {
	res, err := j.Run(ctx, points)
	if err != nil {
		return nil, err
	}
	out := make(map[string]sim.Results, len(points))
	for i, p := range points {
		out[p.Key] = res[i]
	}
	return out, nil
}

// RunAll executes the points on an anonymous job (engine-default progress,
// no budget). See Job.RunAll.
func (e *Engine) RunAll(ctx context.Context, points []Point) ([]PointResult, error) {
	return e.NewJob().RunAll(ctx, points)
}

// Run executes the points on an anonymous job. See Job.Run.
func (e *Engine) Run(ctx context.Context, points []Point) ([]sim.Results, error) {
	return e.NewJob().Run(ctx, points)
}

// RunMap executes the points on an anonymous job. See Job.RunMap.
func (e *Engine) RunMap(ctx context.Context, points []Point) (map[string]sim.Results, error) {
	return e.NewJob().RunMap(ctx, points)
}

// plan maps each point to its cache entry, creating entries for the runs
// this call owns. It walks the points in submission order, so hit
// accounting and cache insertion order are deterministic for any
// worker count (concurrent planners walking the same point sequence
// insert each fingerprint exactly once, in sequence position order).
func (j *Job) plan(points []Point, waiters []*entry) (toRun []runItem, hits int, err error) {
	e := j.e
	// The fingerprint is only needed when something is keyed by it; a
	// memoization-disabled engine with no ledger skips the hash entirely
	// (it is pure per-point overhead there).
	needFP := !e.noCache || e.led != nil
	var cacheHits, ledHits int
	defer func() {
		if cacheHits == 0 && ledHits == 0 {
			return
		}
		j.tally(func(s *Stats) {
			s.CacheHits += cacheHits
			s.LedgerHits += ledHits
		})
	}()
	for i, p := range points {
		var fp string
		if needFP {
			if fp, err = p.Fingerprint(); err != nil {
				return nil, hits, fmt.Errorf("sweep: point %q: %w", p.Key, err)
			}
		}
		// warm resolves a point the ledger already holds completed.
		warm := func() (*entry, bool) {
			if e.led != nil {
				if res, ok := e.led.Lookup(fp); ok {
					ledHits++
					return resolvedEntry(res), true
				}
			}
			return nil, false
		}
		if e.noCache {
			if needFP {
				if en, ok := warm(); ok {
					hits++
					waiters[i] = en
					continue
				}
			}
			en := &entry{done: make(chan struct{})}
			waiters[i] = en
			toRun = append(toRun, runItem{fp: fp, p: p, en: en})
			continue
		}
		e.mu.Lock()
		if en, ok := e.cache[fp]; ok {
			e.mu.Unlock()
			cacheHits++
			hits++
			waiters[i] = en
			continue
		}
		if en, ok := warm(); ok {
			e.addLocked(fp, en)
			e.mu.Unlock()
			hits++
			waiters[i] = en
			continue
		}
		en := &entry{done: make(chan struct{})}
		e.addLocked(fp, en)
		e.mu.Unlock()
		waiters[i] = en
		toRun = append(toRun, runItem{fp: fp, p: p, en: en})
	}
	return toRun, hits, nil
}

func resolvedEntry(res sim.Results) *entry {
	en := &entry{res: res, done: make(chan struct{})}
	close(en.done)
	return en
}

// execute plans the campaign and fans its runs out over the engine's arena
// slots, returning each point's entry (resolved or in flight).
func (j *Job) execute(ctx context.Context, points []Point) ([]*entry, error) {
	e := j.e
	e.mu.Lock()
	if j.maxPoints > 0 && j.stats.Points+len(points) > j.maxPoints {
		submitted := j.stats.Points
		e.mu.Unlock()
		return nil, &BudgetError{Submitted: submitted, Requested: len(points), Budget: j.maxPoints}
	}
	e.stats.Points += len(points)
	j.stats.Points += len(points)
	e.mu.Unlock()

	if e.led != nil {
		// One refresh per campaign absorbs everything other worker
		// processes have completed so far; the run loop refreshes again as
		// it claims and waits.
		if err := e.led.Refresh(); err != nil {
			return nil, fmt.Errorf("sweep: ledger refresh: %w", err)
		}
	}

	waiters := make([]*entry, len(points))
	toRun, hits, err := j.plan(points, waiters)
	if err != nil {
		return nil, err
	}
	if len(toRun) == 0 {
		return waiters, nil
	}

	// runCtx is the campaign's cancellation scope: it follows the caller's
	// context and, under fail-fast, is cancelled on the first genuine point
	// failure. Its Done channel is threaded into every simulation as the
	// stop channel, so in-flight runs abort within a few thousand ticks.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	start := time.Now()
	done := 0
	var progMu sync.Mutex
	note := func(it runItem, dur time.Duration, executed bool) {
		if executed {
			e.mu.Lock()
			// The entry just resolved; entries inserted in flight become
			// evictable only now, so re-enforce the bound.
			e.evictLocked()
			e.stats.addRun(it.p.Key, dur)
			j.stats.addRun(it.p.Key, dur)
			e.mu.Unlock()
		}
		if j.progress == nil {
			return
		}
		st := j.Stats()
		progMu.Lock()
		done++
		j.progress(Progress{
			Done:       hits + done,
			Total:      len(points),
			CacheHits:  hits,
			SimsPerSec: float64(done) / time.Since(start).Seconds(),
			WorstRun:   st.WorstRun,
			WorstKey:   st.WorstKey,
		})
		progMu.Unlock()
	}

	// Up to e.workers goroutines take the owned runs from a cursor in
	// submission order; each holds an arena slot only while it simulates,
	// so every call on the engine shares the one bound. Items another
	// process's live ledger claim pushed past are deferred: they are taken
	// only once the cursor is drained, this time waiting the claim out (or
	// stealing it on expiry), so K processes stream through disjoint spans
	// instead of convoying on each other's claims. The goroutines drain
	// every item even after cancellation, failing (and uncaching) the ones
	// they skip, so every entry's done channel is guaranteed to close.
	var curMu sync.Mutex // guards next and deferred
	next := 0
	var deferred []runItem
	take := func() (it runItem, block, ok bool) {
		curMu.Lock()
		defer curMu.Unlock()
		if next < len(toRun) {
			next++
			return toRun[next-1], false, true
		}
		if n := len(deferred); n > 0 {
			it = deferred[n-1]
			deferred = deferred[:n-1]
			return it, true, true
		}
		return runItem{}, false, false
	}
	// runItemFull resolves one item end to end. With block=false a live
	// foreign ledger claim defers the item instead of waiting.
	runItemFull := func(it runItem, block bool) {
		if runCtx.Err() != nil {
			j.fail(it, runCtx.Err(), false)
			return
		}
		var res sim.Results
		var dur time.Duration
		var executed bool
		var err error
		if e.led != nil {
			var wait bool
			res, dur, executed, wait, err = j.runLedgerItem(runCtx, it, block)
			if wait {
				curMu.Lock()
				deferred = append(deferred, it)
				curMu.Unlock()
				return
			}
		} else {
			res, dur, err = j.runSlot(runCtx, it)
			executed = true
		}
		if err != nil {
			genuine := !isCancel(err)
			j.fail(it, err, genuine)
			if genuine && !e.keepGoing {
				cancelRun()
			}
			return
		}
		it.en.res = res
		close(it.en.done)
		note(it, dur, executed)
	}
	var wg sync.WaitGroup
	for w := 0; w < min(e.workers, len(toRun)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it, block, ok := take(); ok; it, block, ok = take() {
				runItemFull(it, block)
			}
		}()
	}
	wg.Wait()
	return waiters, nil
}

// addRun counts one executed simulation of wall time dur.
func (s *Stats) addRun(key string, dur time.Duration) {
	s.Ran++
	s.SimTime += dur
	if dur > s.WorstRun {
		s.WorstRun, s.WorstKey = dur, key
	}
}

// runSlot executes one item on an arena slot, waiting for a free one
// first, and returns the run's wall time measured while holding the slot.
func (j *Job) runSlot(ctx context.Context, it runItem) (sim.Results, time.Duration, error) {
	a, err := j.e.acquire(ctx)
	if err != nil {
		return sim.Results{}, 0, err
	}
	t0 := time.Now()
	res, err := j.runPoint(ctx, it, a)
	dur := time.Since(t0)
	j.e.slots <- a
	return res, dur, err
}

// runLedgerItem resolves one item through the work-stealing ledger: a
// point another process already completed is a ledger hit; an unclaimed
// (or stale-claimed) point is claimed, executed locally and completed into
// the ledger. A point under another live worker's claim is waited for —
// polling until it completes or its claim expires and can be stolen — when
// block is set; otherwise it is handed back (wait=true) so the caller can
// defer it and move on to unclaimed work.
//
// The arena slot is taken before the claim and given back before any
// deferral or poll, and a won claim keeps it until the point is completed
// into the ledger: a process never holds more live claims than it has
// workers, and never sits on a slot while it waits for another process.
func (j *Job) runLedgerItem(ctx context.Context, it runItem, block bool) (res sim.Results, dur time.Duration, executed bool, wait bool, err error) {
	e := j.e
	led := e.led
	for {
		if r, ok := led.Lookup(it.fp); ok {
			j.tally(func(s *Stats) { s.LedgerHits++ })
			return r, 0, false, false, nil
		}
		if reason, ok := led.PoisonReason(it.fp); ok {
			// Quarantined by a supervisor: the same point crashed enough
			// workers that running it again would only crash this one too.
			return sim.Results{}, 0, false, false,
				&PoisonedError{Key: it.p.Key, Fingerprint: it.fp, Reason: reason}
		}
		a, aerr := e.acquire(ctx)
		if aerr != nil {
			return sim.Results{}, 0, false, false, aerr
		}
		won, stole, cerr := led.TryClaim(it.fp, it.p.Key)
		if won {
			if stole {
				j.tally(func(s *Stats) { s.Steals++ })
			}
			// Chaos hook: a crash schedule keyed to this point kills the
			// process here — after the claim, before the run — modeling a
			// poisoned input. No-op (one atomic load) unless armed.
			failpoint.CrashIf(FPLedgerClaimed, it.p.Key)
			t0 := time.Now()
			res, err = j.runPoint(ctx, it, a)
			dur = time.Since(t0)
			// A failed run's claim is left to expire; another worker will
			// steal and re-attempt the point (and, for deterministic
			// failures, reach the same verdict independently).
			if err == nil {
				if werr := led.Complete(it.fp, it.p.Key, res); werr != nil {
					err = fmt.Errorf("sweep: ledger write: %w", werr)
				}
			}
			e.slots <- a
			return res, dur, true, false, err
		}
		e.slots <- a
		if cerr != nil {
			return sim.Results{}, 0, false, false, fmt.Errorf("sweep: ledger claim: %w", cerr)
		}
		if !block {
			return sim.Results{}, 0, false, true, nil
		}
		// Another live worker owns the claim: wait a poll interval, then
		// re-check (TryClaim refreshes the ledger view each attempt).
		select {
		case <-ctx.Done():
			return sim.Results{}, 0, false, false, ctx.Err()
		case <-time.After(led.pollEvery()):
		}
	}
}

// runPoint executes one point with panic isolation, the per-run deadline,
// and bounded retry of transient failures, on the caller's arena slot.
func (j *Job) runPoint(ctx context.Context, it runItem, a *arena) (sim.Results, error) {
	e := j.e
	attempt := 0
	for {
		attempt++
		res, reused, err := j.runOnce(ctx, it.p, a)
		j.tally(func(s *Stats) {
			if reused {
				s.ArenaReuses++
			} else {
				s.FreshBuilds++
			}
		})
		if err == nil {
			return res, nil
		}
		var ce *sim.CheckError
		if errors.As(err, &ce) && ce.Kind == sim.FailAborted {
			// Stopped through the stop channel: a cancellation, not a
			// failure of this point.
			if cerr := ctx.Err(); cerr != nil {
				return sim.Results{}, cerr
			}
			return sim.Results{}, context.Canceled
		}
		if attempt <= e.retries && transient(err) && ctx.Err() == nil {
			j.tally(func(s *Stats) { s.Retried++ })
			time.Sleep(time.Duration(attempt) * e.backoff)
			continue
		}
		re := &RunError{
			Key:         it.p.Key,
			Benchmark:   it.p.Benchmark,
			Seed:        it.p.Seed,
			Fingerprint: it.fp,
			Attempts:    attempt,
			Err:         err,
		}
		var pe *panicError
		if errors.As(err, &pe) {
			re.Stack = pe.stack
		}
		return sim.Results{}, re
	}
}

// runOnce executes one attempt on the arena, converting panics — the
// simulator's structured failures and anything else — into errors. The
// arena's machine is reset in place when present (the steady-state path:
// zero arena allocation) and constructed on first use; reused reports
// which. A structured failure leaves the arena reusable — Machine.Reset
// restores a bit-identical fresh machine from any mid-run state — but an
// unstructured panic or a failed reset drops it, since its invariants are
// unknown. The caller does the counting, so the hot path takes no lock.
//
//vsv:hotpath
func (j *Job) runOnce(ctx context.Context, p Point, a *arena) (res sim.Results, reused bool, err error) {
	e := j.e
	//vsvlint:ignore hotpath the panic-recovery boundary must be a deferred function literal; one closure per attempt, amortized against the whole run
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if ce, ok := r.(*sim.CheckError); ok {
			err = ce
			return
		}
		a.m = nil
		err = &panicError{value: r, stack: debug.Stack()}
	}()
	opts := []sim.Option{
		sim.WithConfig(p.Config), sim.WithSeed(p.Seed), sim.WithStop(ctx.Done()),
	}
	if e.runTimeout > 0 {
		opts = append(opts, sim.WithWallDeadline(time.Now().Add(e.runTimeout)))
	}
	reused = a.m != nil
	if reused {
		if err := a.m.ResetBench(p.Benchmark, opts...); err != nil {
			a.m = nil
			return sim.Results{}, reused, err
		}
	} else {
		m, err := sim.NewBench(p.Benchmark, opts...)
		if err != nil {
			return sim.Results{}, reused, err
		}
		a.m = m
	}
	return a.m.Run(p.Benchmark), reused, nil
}

// fail marks an entry as errored and removes it from the cache so a later
// campaign re-executes the point; genuine failures (not cancellations) are
// counted.
func (j *Job) fail(it runItem, err error, genuine bool) {
	e := j.e
	e.mu.Lock()
	if cur, ok := e.cache[it.fp]; ok && cur == it.en {
		delete(e.cache, it.fp)
	}
	if genuine {
		e.stats.Failed++
		j.stats.Failed++
	}
	e.mu.Unlock()
	it.en.err = err
	close(it.en.done)
}

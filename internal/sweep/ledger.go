package sweep

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/campaign/apiv1"
	"repro/internal/recordlog"
	"repro/internal/sim"
)

// FPLedgerClaimed is the failpoint site (see internal/failpoint) between
// winning a claim and running the point. Armed with crash and a key, it
// models a poisoned input that kills any worker that picks it up — the
// supervisor's quarantine drill. Exported so drivers can name the site in
// chaos schedules. Claim, completion and poison records are written at
// the log's ledger.append site.
const FPLedgerClaimed = "ledger.claimed"

// Ledger is the sweep engine's durable record of finished points: a JSONL
// file (internal/recordlog) that one or many worker processes share.
// Workers announce which points they are running (claim records) and
// publish results as they finish (completion records, apiv1
// CheckpointRecords); a supervisor can withdraw a point that keeps
// crashing its workers (poison records). A single process that reopens
// its own ledger under the same worker name resumes an interrupted
// campaign, which is what -checkpoint files are. The coordination
// protocol is deliberately minimal because the simulations themselves
// are deterministic:
//
//   - Appends are single O_APPEND write(2) calls of one whole record, led
//     by a terminator that caps any fragment a dead writer left, so no
//     record is ever glued onto another writer's torn line.
//   - Claims are advisory. Two workers that race the same fingerprint both
//     run it; the duplicate is wasted work, not an error, because both
//     produce bit-identical results and the first completion record wins.
//   - Claims expire. A claim carries a wall-clock deadline; once it passes
//     without a completion, any worker may steal the point. A worker
//     killed mid-run therefore delays its claimed points by at most the
//     claim TTL — or not at all for a successor under the same worker
//     name, which takes its own claims back at once.
//   - Readers never truncate: another process may already have valid
//     records after a torn or corrupt line. An unterminated tail waits
//     for its terminator; a complete-but-undecodable line is skipped and
//     counted.
type Ledger struct {
	mu       sync.Mutex
	log      *recordlog.Log
	worker   string
	ttl      time.Duration
	poll     time.Duration
	done     map[string]sim.Results
	claims   map[string]claimState
	poisoned map[string]string // fingerprint → quarantine reason
	loaded   int               // completion records absorbed over the ledger's lifetime
}

type claimState struct {
	worker   string
	key      string
	deadline time.Time
}

// LedgerOption configures an opened ledger.
type LedgerOption func(*Ledger)

// LedgerWorker sets the ledger's worker identity, written into its claim
// records. The default is pid-derived. Multi-process drivers set stable
// worker names for diagnosability; a driver that resumes its own ledger
// (experiments -checkpoint) sets a fixed one, so the resumed run takes
// back its dead predecessor's claims at once instead of waiting them out.
func LedgerWorker(id string) LedgerOption {
	return func(l *Ledger) {
		if id != "" {
			l.worker = id
		}
	}
}

// LedgerClaimTTL sets how long a claim shields a point from other workers
// before it may be stolen (default 10s). It bounds how long a killed
// worker's in-flight points stay blocked, so it should comfortably exceed
// one simulation's runtime and nothing more.
func LedgerClaimTTL(d time.Duration) LedgerOption {
	return func(l *Ledger) {
		if d > 0 {
			l.ttl = d
		}
	}
}

// LedgerPoll sets how often a worker waiting on another's live claim
// re-reads the ledger (default 25ms).
func LedgerPoll(d time.Duration) LedgerOption {
	return func(l *Ledger) {
		if d > 0 {
			l.poll = d
		}
	}
}

// OpenLedger opens (creating if needed) the shared ledger file at path and
// absorbs every record already present.
func OpenLedger(path string, opts ...LedgerOption) (*Ledger, error) {
	log, err := recordlog.Open(path, "ledger", false)
	if err != nil {
		return nil, fmt.Errorf("sweep: ledger: %w", err)
	}
	l := &Ledger{
		log:      log,
		worker:   "pid-" + strconv.Itoa(os.Getpid()),
		ttl:      10 * time.Second,
		poll:     25 * time.Millisecond,
		done:     make(map[string]sim.Results),
		claims:   make(map[string]claimState),
		poisoned: make(map[string]string),
	}
	for _, o := range opts {
		o(l)
	}
	if err := l.Refresh(); err != nil {
		_ = log.Close()
		return nil, err
	}
	return l, nil
}

// Worker returns the ledger's worker identity.
func (l *Ledger) Worker() string { return l.worker }

// Refresh absorbs everything other processes have appended since the last
// read.
func (l *Ledger) Refresh() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.refreshLocked()
}

func (l *Ledger) refreshLocked() error {
	if err := l.log.Read(l.absorb); err != nil {
		return fmt.Errorf("sweep: ledger: %w", err)
	}
	return nil
}

// absorb folds one ledger line into the in-memory view, reporting false
// for an undecodable line (the log skips and counts it; at worst the
// point re-runs).
func (l *Ledger) absorb(line []byte) bool {
	rec, err := apiv1.DecodeLedgerRecord(line)
	if err != nil {
		return false
	}
	_, done := l.done[rec.FP]
	switch {
	case done:
		// Already complete: a late claim is moot, a poison is disproved
		// and a duplicate completion is bit-identical anyway — the
		// simulations are deterministic, so the first record wins.
	case rec.Claim:
		// Later claims supersede earlier ones for a fingerprint (a steal
		// re-claims with a fresh deadline).
		l.claims[rec.FP] = claimState{
			worker:   rec.Worker,
			key:      rec.Key,
			deadline: time.UnixMilli(rec.Deadline),
		}
	case rec.Poison:
		l.poisoned[rec.FP] = rec.Reason
		delete(l.claims, rec.FP)
	default:
		l.markDone(rec.FP, rec.Res)
	}
	return true
}

// markDone records a completion; it supersedes any claim or quarantine
// (the point ran somewhere).
func (l *Ledger) markDone(fp string, res sim.Results) {
	l.done[fp] = res
	l.loaded++
	delete(l.claims, fp)
	delete(l.poisoned, fp)
}

// Lookup returns the completed results for a fingerprint, from the
// in-memory view (call Refresh to absorb other processes' appends).
func (l *Ledger) Lookup(fp string) (sim.Results, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	res, ok := l.done[fp]
	return res, ok
}

// TryClaim attempts to claim the fingerprint for this worker after
// refreshing the ledger view. It returns won=false when the point is
// already complete (Lookup will now hit) or under another worker's live
// claim (wait and retry); otherwise it appends a claim record with a fresh
// deadline and returns won=true — with stole=true when the claim it
// superseded was another worker's expired one.
func (l *Ledger) TryClaim(fp, key string) (won, stole bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.refreshLocked(); err != nil {
		return false, false, err
	}
	if _, ok := l.done[fp]; ok {
		return false, false, nil
	}
	if _, ok := l.poisoned[fp]; ok {
		// Quarantined: never claim it. The caller's poison check (after
		// the next Lookup miss) turns this into a typed failure.
		return false, false, nil
	}
	now := time.Now()
	if c, ok := l.claims[fp]; ok && c.worker != l.worker {
		if now.Before(c.deadline) {
			return false, false, nil
		}
		stole = true
	}
	deadline := now.Add(l.ttl)
	line, err := apiv1.EncodeClaimRecord(fp, key, l.worker, deadline.UnixMilli())
	if err != nil {
		return false, false, fmt.Errorf("sweep: ledger: encode claim: %w", err)
	}
	if err := l.log.Append(line); err != nil {
		return false, false, fmt.Errorf("sweep: ledger: %w", err)
	}
	l.claims[fp] = claimState{worker: l.worker, key: key, deadline: deadline}
	return true, stole, nil
}

// Complete publishes a finished simulation. If another worker's completion
// already arrived (the advisory-claim race), the duplicate is dropped —
// deterministic results make the two records interchangeable anyway.
func (l *Ledger) Complete(fp, key string, res sim.Results) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.done[fp]; ok {
		return nil
	}
	line, err := apiv1.EncodeCheckpointRecord(fp, key, res)
	if err != nil {
		return fmt.Errorf("sweep: ledger: encode: %w", err)
	}
	if err := l.log.Append(line); err != nil {
		return fmt.Errorf("sweep: ledger: %w", err)
	}
	l.markDone(fp, res)
	return nil
}

// Poison quarantines a fingerprint: a poison record is appended and every
// ledger (this one on return, others at their next refresh) fails the
// point typed instead of running it. Supervisors call this when the same
// point has crashed enough workers that retrying is just a crash loop. A
// completed point cannot be poisoned (the completion already proves it
// runs).
func (l *Ledger) Poison(fp, key, reason string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.done[fp]; ok {
		return nil
	}
	line, err := apiv1.EncodePoisonRecord(fp, key, l.worker, reason)
	if err != nil {
		return fmt.Errorf("sweep: ledger: encode poison: %w", err)
	}
	if err := l.log.Append(line); err != nil {
		return fmt.Errorf("sweep: ledger: %w", err)
	}
	l.poisoned[fp] = reason
	delete(l.claims, fp)
	return nil
}

// PoisonReason returns the quarantine reason for a fingerprint, from the
// in-memory view (call Refresh to absorb other processes' appends).
func (l *Ledger) PoisonReason(fp string) (string, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	reason, ok := l.poisoned[fp]
	return reason, ok
}

// ClaimInfo identifies one live claim for supervision diagnostics.
type ClaimInfo struct {
	FP, Key string
}

// ClaimsBy returns the fingerprints currently claimed by the named worker,
// from the in-memory view (call Refresh first for a current one). A
// supervisor uses it to find what a crashed worker was holding: those
// fingerprints are the quarantine suspects.
func (l *Ledger) ClaimsBy(worker string) []ClaimInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []ClaimInfo
	for fp, c := range l.claims {
		if c.worker == worker {
			out = append(out, ClaimInfo{FP: fp, Key: c.key})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FP < out[j].FP })
	return out
}

// pollEvery returns how long a worker waits between re-checks of another
// worker's live claim.
func (l *Ledger) pollEvery() time.Duration { return l.poll }

// Len returns how many distinct fingerprints have completed.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.done)
}

// Loaded returns how many completion records this ledger has absorbed
// (its own and other workers').
func (l *Ledger) Loaded() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.loaded
}

// Skipped returns how many undecodable complete lines were skipped.
func (l *Ledger) Skipped() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.log.Skipped()
}

// Close closes the underlying file. Lookup keeps serving the in-memory
// view; Refresh, TryClaim and Complete fail once closed.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.log.Close()
}

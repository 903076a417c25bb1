package sweep

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/campaign/apiv1"
	"repro/internal/failpoint"
	"repro/internal/sim"
)

// Ledger failpoint sites (no-ops unless armed; see internal/failpoint).
const (
	// fpLedgerAppend is the single O_APPEND write of one whole line —
	// claim, completion and poison records all pass through it.
	fpLedgerAppend = "ledger.append"
	// FPLedgerClaimed fires between winning a claim and running the
	// point. Armed with crash and a key, it models a poisoned input that
	// kills any worker that picks it up — the supervisor's quarantine
	// drill. Exported so drivers can name the site in chaos schedules.
	FPLedgerClaimed = "ledger.claimed"
)

// Ledger turns the checkpoint's JSONL format into a multi-writer
// work-stealing ledger: several worker processes open the same file,
// announce which points they are running (claim records), and publish
// results as they finish (completion records, byte-identical to v1
// checkpoint records). The coordination protocol is deliberately minimal
// because the simulations themselves are deterministic:
//
//   - Appends are single O_APPEND write(2) calls of one whole line, so
//     concurrent writers never interleave bytes within a record.
//   - Claims are advisory. Two workers that race the same fingerprint both
//     run it; the duplicate is wasted work, not an error, because both
//     produce bit-identical results and the first completion record wins.
//   - Claims expire. A claim carries a wall-clock deadline; once it passes
//     without a completion, any worker may steal the point. A worker
//     killed mid-run therefore delays its claimed points by at most the
//     claim TTL.
//   - Readers never truncate. Unlike the single-writer checkpoint, a torn
//     or corrupt line cannot be cut off (another process may already have
//     valid records after it); instead an unterminated trailing fragment
//     stays pending until its terminator arrives, and a complete-but-
//     undecodable line is skipped and counted.
//
// A ledger file whose claims have all expired or completed is a valid
// checkpoint file apart from the claim lines, which the checkpoint reader
// rejects as corruption — so ledgers and checkpoints stay distinct files.
type Ledger struct {
	mu       sync.Mutex
	f        *os.File
	worker   string
	ttl      time.Duration
	poll     time.Duration
	readOff  int64  // bytes consumed from the file so far
	pending  []byte // trailing bytes not yet terminated by '\n'
	buf      []byte // read buffer, reused across refreshes
	done     map[string]sim.Results
	claims   map[string]claimState
	poisoned map[string]string // fingerprint → quarantine reason
	loaded   int               // completion records absorbed over the ledger's lifetime
	skipped  int               // undecodable complete lines skipped
	tornTail bool              // last append failed; the file may end mid-line
}

type claimState struct {
	worker   string
	key      string
	deadline time.Time
}

// LedgerOption configures an opened ledger.
type LedgerOption func(*Ledger)

// LedgerWorker sets the ledger's worker identity, written into its claim
// records. The default is pid-derived; multi-process drivers set stable
// worker names for diagnosability.
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
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: ledger: %w", err)
	}
	l := &Ledger{
		f:        f,
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
	l.mu.Lock()
	err = l.refreshLocked()
	l.mu.Unlock()
	if err != nil {
		_ = f.Close()
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
	if l.f == nil {
		return fmt.Errorf("sweep: ledger: closed")
	}
	if l.buf == nil {
		l.buf = make([]byte, 1<<16)
	}
	for {
		n, err := l.f.ReadAt(l.buf, l.readOff)
		if n > 0 {
			l.readOff += int64(n)
			l.pending = append(l.pending, l.buf[:n]...)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("sweep: ledger: read: %w", err)
		}
		if n == 0 {
			break
		}
	}
	for {
		i := bytes.IndexByte(l.pending, '\n')
		if i < 0 {
			// An unterminated fragment: a writer is mid-append (or was
			// killed mid-write). Keep it pending; if its terminator never
			// arrives, later complete lines appended after it will decode
			// once the fragment+line parses or be skipped as one bad line.
			break
		}
		line := l.pending[:i]
		l.pending = l.pending[i+1:]
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		rec, err := apiv1.DecodeLedgerRecord(line)
		if err != nil {
			// Multi-writer file: cannot truncate at a bad record the way
			// the checkpoint does. Skip it; at worst the point re-runs.
			l.skipped++
			continue
		}
		if rec.Claim {
			if _, ok := l.done[rec.FP]; ok {
				continue // already complete; a late claim is moot
			}
			// Later claims supersede earlier ones for a fingerprint (a
			// steal re-claims with a fresh deadline).
			l.claims[rec.FP] = claimState{
				worker:   rec.Worker,
				key:      rec.Key,
				deadline: time.UnixMilli(rec.Deadline),
			}
			continue
		}
		if rec.Poison {
			if _, ok := l.done[rec.FP]; ok {
				continue // a completion already proved the point runs
			}
			l.poisoned[rec.FP] = rec.Reason
			delete(l.claims, rec.FP)
			continue
		}
		if _, ok := l.done[rec.FP]; !ok {
			// First completion wins. Duplicates (two workers racing one
			// point) are bit-identical anyway — the simulations are
			// deterministic — so which record wins is immaterial.
			l.done[rec.FP] = rec.Res
			l.loaded++
		}
		delete(l.claims, rec.FP)
		// A completion supersedes any quarantine: the point ran somewhere.
		delete(l.poisoned, rec.FP)
	}
	return nil
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
	if err := l.appendLocked(line); err != nil {
		return false, false, err
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
	if err := l.appendLocked(line); err != nil {
		return err
	}
	l.done[fp] = res
	delete(l.claims, fp)
	delete(l.poisoned, fp)
	l.loaded++
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
	if err := l.appendLocked(line); err != nil {
		return err
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

// appendLocked writes one whole line (record + terminator) in a single
// write call. O_APPEND makes the offset positioning atomic across
// processes, and a single write of a short line is not interleaved with
// other writers' lines on POSIX local filesystems — the property the
// whole multi-writer format rests on.
//
// A failed append (ENOSPC, short write) may have torn a partial line into
// the file; the writer cannot know how much got out. The next append
// therefore leads with an extra terminator, which caps any fragment into
// one complete-but-undecodable line that every reader skips — the repaired
// record after it decodes normally. An unnecessary extra newline is free
// (blank lines are skipped on read).
func (l *Ledger) appendLocked(line []byte) error {
	if l.f == nil {
		return fmt.Errorf("sweep: ledger: closed")
	}
	buf := make([]byte, 0, len(line)+2)
	if l.tornTail {
		buf = append(buf, '\n')
	}
	buf = append(append(buf, line...), '\n')
	if _, err := failpoint.Write(fpLedgerAppend, l.f, buf); err != nil {
		l.tornTail = true
		return fmt.Errorf("sweep: ledger: append: %w", err)
	}
	l.tornTail = false
	return nil
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
// (its own and other workers'); Skipped returns how many undecodable
// complete lines were passed over.
func (l *Ledger) Loaded() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.loaded
}

// Skipped returns how many undecodable complete lines were skipped.
func (l *Ledger) Skipped() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.skipped
}

// Close closes the underlying file. Lookup keeps serving the in-memory
// view; Refresh, TryClaim and Complete fail once closed.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

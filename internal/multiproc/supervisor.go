package multiproc

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"
)

// GenEnv carries a worker's restart generation (0-based, decimal). The
// first launch of every slot is generation 0; each supervisor restart
// increments it. Workers fold the generation into their ledger identity
// (see WorkerName) so a restarted worker never inherits its dead
// predecessor's claims — those must expire and be stolen, or be counted
// against a poisoned point.
const GenEnv = "VSV_WORKER_GEN"

// WorkerGen returns this process's restart generation (0 when launched
// outside a supervisor, or on the first launch of a slot).
func WorkerGen() int {
	n, err := strconv.Atoi(os.Getenv(GenEnv))
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// WorkerName is the canonical ledger identity for a worker process:
// "w<slot>" for generation 0 and "w<slot>g<gen>" for restarts.
func WorkerName(slot, gen int) string {
	if gen == 0 {
		return fmt.Sprintf("w%d", slot)
	}
	return fmt.Sprintf("w%dg%d", slot, gen)
}

// Suspect is a ledger claim a worker held when it died — a candidate
// culprit for the death. A point implicated in enough consecutive worker
// crashes is quarantined via the Poison callback.
type Suspect struct {
	FP  string // sweep fingerprint
	Key string // human-readable point key
}

// RestartPolicy bounds the supervisor's crash handling. The zero value is
// usable; fields default as documented.
type RestartPolicy struct {
	// MaxRestarts is the per-slot restart budget (default 3). A slot that
	// exhausts it is abandoned — the ledger protocol tolerates the loss;
	// the parent's render pass picks up the slack.
	MaxRestarts int
	// Backoff is the delay before the first restart of a slot (default
	// 250ms); consecutive crashes of the same slot double it up to
	// BackoffMax (default 5s). A clean run longer than the current backoff
	// resets the doubling.
	Backoff    time.Duration
	BackoffMax time.Duration
	// PoisonAfter quarantines a point once it was under a dying worker's
	// claim in this many distinct crashes (default 2: one crash is
	// circumstantial — claims are coarse — two is a pattern).
	PoisonAfter int
}

func (p RestartPolicy) withDefaults() RestartPolicy {
	if p.MaxRestarts <= 0 {
		p.MaxRestarts = 3
	}
	if p.Backoff <= 0 {
		p.Backoff = 250 * time.Millisecond
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = 5 * time.Second
	}
	if p.PoisonAfter <= 0 {
		p.PoisonAfter = 2
	}
	return p
}

// SupervisorConfig parameterizes Supervise.
type SupervisorConfig struct {
	// Procs is the number of worker slots (each holds one live process).
	Procs int
	// Ledger is the shared ledger path handed to every worker.
	Ledger string
	// ExtraEnv entries ("KEY=VALUE") are appended to every worker's
	// environment after the protocol variables.
	ExtraEnv []string
	// Stderr receives worker diagnostics and supervisor log lines (nil
	// discards).
	Stderr io.Writer
	Policy RestartPolicy
	// Suspects names the ledger claims the given worker held when it died
	// (by WorkerName). Nil disables poison attribution.
	Suspects func(worker string) []Suspect
	// Poison quarantines a point the supervisor has convicted. Nil
	// disables quarantine (crashes still restart within budget).
	Poison func(s Suspect, reason string) error
}

// SuperviseResult summarizes a supervised campaign.
type SuperviseResult struct {
	Restarts  int       // worker processes restarted after a crash
	Exhausted []int     // slots abandoned after MaxRestarts consecutive crashes
	Poisoned  []Suspect // points quarantined by the crash-attribution rule
}

// Supervise runs Procs worker slots of the current executable until every
// slot either exits cleanly or exhausts its restart budget. A crashed
// worker (any non-zero exit) is restarted with capped exponential backoff
// under a fresh generation; before each restart the supervisor asks the
// ledger which claims the dead worker held, and a point implicated in
// PoisonAfter distinct crashes is quarantined through the Poison callback
// so the restarted fleet cannot crash-loop on it. Cancelling ctx kills the
// fleet.
func Supervise(ctx context.Context, cfg SupervisorConfig) (SuperviseResult, error) {
	if cfg.Procs < 1 {
		return SuperviseResult{}, fmt.Errorf("multiproc: supervise %d procs < 1", cfg.Procs)
	}
	exe, err := os.Executable()
	if err != nil {
		return SuperviseResult{}, fmt.Errorf("multiproc: %w", err)
	}
	stderr := cfg.Stderr
	if stderr == nil {
		stderr = io.Discard
	}
	pol := cfg.Policy.withDefaults()

	var (
		mu     sync.Mutex
		res    SuperviseResult
		crimes = make(map[string]int)  // fp → distinct crashes implicating it
		jailed = make(map[string]bool) // fp → already quarantined
		wg     sync.WaitGroup
	)

	// convict charges every claim the dead worker held and quarantines the
	// repeat offenders. Serialized under mu: concurrent slot deaths must
	// not double-poison.
	convict := func(worker string, gen int) {
		if cfg.Suspects == nil {
			return
		}
		suspects := cfg.Suspects(worker)
		mu.Lock()
		defer mu.Unlock()
		for _, s := range suspects {
			crimes[s.FP]++
			if crimes[s.FP] < pol.PoisonAfter || jailed[s.FP] || cfg.Poison == nil {
				continue
			}
			reason := fmt.Sprintf("implicated in %d worker crashes (last: %s)", crimes[s.FP], worker)
			if err := cfg.Poison(s, reason); err != nil {
				fmt.Fprintf(stderr, "supervisor: poisoning %s (%s): %v\n", s.Key, s.FP, err)
				continue
			}
			jailed[s.FP] = true
			res.Poisoned = append(res.Poisoned, s)
			fmt.Fprintf(stderr, "supervisor: quarantined point %s (fp %s): %s\n", s.Key, s.FP, reason)
		}
	}

	for slot := 0; slot < cfg.Procs; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			backoff := pol.Backoff
			for gen, restarts := 0, 0; ; gen++ {
				start := time.Now()
				cmd := exec.CommandContext(ctx, exe, os.Args[1:]...)
				cmd.Env = append(os.Environ(),
					WorkerEnv+"="+strconv.Itoa(slot),
					LedgerEnv+"="+cfg.Ledger,
					GenEnv+"="+strconv.Itoa(gen),
				)
				cmd.Env = append(cmd.Env, cfg.ExtraEnv...)
				cmd.Stdout = io.Discard
				cmd.Stderr = stderr
				err := cmd.Run()
				if err == nil {
					return // clean exit: the slot's share of the campaign is done
				}
				if ctx.Err() != nil {
					return // shutdown, not a crash
				}
				convict(WorkerName(slot, gen), gen)
				// A run that outlived the current backoff was making
				// progress; treat the crash as fresh rather than part of a
				// tight loop.
				if time.Since(start) > backoff {
					backoff = pol.Backoff
				}
				restarts++
				if restarts > pol.MaxRestarts {
					mu.Lock()
					res.Exhausted = append(res.Exhausted, slot)
					mu.Unlock()
					fmt.Fprintf(stderr,
						"supervisor: worker slot %d: %v; restart budget (%d) exhausted, abandoning slot\n",
						slot, err, pol.MaxRestarts)
					return
				}
				fmt.Fprintf(stderr, "supervisor: worker slot %d (gen %d): %v; restarting in %v (%d/%d)\n",
					slot, gen, err, backoff, restarts, pol.MaxRestarts)
				select {
				case <-ctx.Done():
					return
				case <-time.After(backoff):
				}
				if backoff *= 2; backoff > pol.BackoffMax {
					backoff = pol.BackoffMax
				}
				mu.Lock()
				res.Restarts++
				mu.Unlock()
			}
		}(slot)
	}
	wg.Wait()
	return res, nil
}

// Package multiproc runs supervised worker copies of the current
// executable for multi-process campaigns (cmd/vsvcampaign). The protocol
// is deliberately tiny: Supervise re-execs its own binary with the
// original argv preserved and a few environment variables added — the
// worker's slot index, its restart generation and the shared ledger path —
// so a worker parses exactly the flags the user typed and differs from
// the parent only in where its output goes and in running against the
// work-stealing ledger. Drivers call WorkerID first thing in main and
// branch into their worker entry point.
//
// Processes exist for fault isolation, not speed: a fatal runtime error,
// an out-of-memory kill or a kill -9 takes down one worker, which recover
// cannot catch inside a single process. The supervisor restarts the slot,
// the dead worker's claims are stolen or taken back, and a point that
// keeps killing workers is quarantined.
package multiproc

import (
	"os"
	"strconv"
)

// WorkerEnv carries a worker's slot index (0-based, decimal).
const WorkerEnv = "VSV_WORKER_ID"

// LedgerEnv carries the shared work-stealing ledger's file path.
const LedgerEnv = "VSV_LEDGER"

// WorkerID returns this process's worker slot when it was started by
// Supervise, and ok=false in the parent (or any ordinarily-launched
// process).
func WorkerID() (id int, ok bool) {
	v := os.Getenv(WorkerEnv)
	if v == "" {
		return 0, false
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// LedgerPath returns the ledger path handed down by the supervising
// parent ("" outside a worker).
func LedgerPath() string { return os.Getenv(LedgerEnv) }

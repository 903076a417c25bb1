package campaign

import (
	"fmt"
	"sync"

	"repro/internal/campaign/apiv1"
	"repro/internal/recordlog"
)

// Journal is the campaign server's durable job log: a WAL-style JSONL file
// (apiv1.JournalRecord lines in an internal/recordlog log) that makes
// accepted jobs survive the process. A submit record is appended — and
// fsynced — before the server acknowledges a job, and a state record at
// every durable lifecycle edge (terminal states, interruption), so
// replaying the file on boot reconstructs every job the server ever
// admitted: terminal jobs come back as history, everything else comes
// back as interrupted work to re-dispatch. Because the engine is
// deterministic, a re-dispatched job's artefacts are byte-identical to
// what the dead process would have served. A done job's artefacts are
// not journaled: after a restart it is history that answers 410.
//
// Durability discipline: the journal is single-writer, each record is one
// whole-line append, and the file is never truncated. Replay skips
// complete-but-undecodable lines (the capped fragment of an append that
// failed or was cut short by a crash) and ignores an unterminated tail.
// A torn record is always an unacknowledged one: the submit fsync
// completes before the 202, so nothing acknowledged is ever dropped. The
// log's failpoint sites are journal.append, journal.sync and
// journal.close.
type Journal struct {
	mu        sync.Mutex
	log       *recordlog.Log
	path      string
	recovered []RecoveredJob
	maxSeq    int
}

// RecoveredJob is one job reconstructed by replay: its original ID and
// request, plus where it stood — a terminal state (history), or
// StateInterrupted (resumable; the server re-dispatches it).
type RecoveredJob struct {
	ID    string
	Req   apiv1.JobRequest
	State apiv1.JobState
	Err   *apiv1.Error
}

// OpenJournal opens (creating if needed) the journal at path and replays
// it: every admitted job is reconstructed under Recovered, in admission
// order.
func OpenJournal(path string) (*Journal, error) {
	log, err := recordlog.Open(path, "journal", true)
	if err != nil {
		return nil, fmt.Errorf("campaign: journal: %w", err)
	}
	jr := &Journal{log: log, path: path}
	byID := make(map[string]int) // id → index into jr.recovered
	err = log.Read(func(line []byte) bool {
		rec, err := apiv1.DecodeJournalRecord(line)
		if err != nil {
			return false
		}
		switch rec.Kind {
		case apiv1.JournalKindSubmit:
			if _, dup := byID[rec.ID]; dup {
				return true // duplicate submit: first wins
			}
			byID[rec.ID] = len(jr.recovered)
			jr.recovered = append(jr.recovered, RecoveredJob{
				ID: rec.ID, Req: *rec.Req, State: apiv1.StateInterrupted,
			})
			var seq int
			if _, err := fmt.Sscanf(rec.ID, "j%d", &seq); err == nil && seq > jr.maxSeq {
				jr.maxSeq = seq
			}
		case apiv1.JournalKindState:
			if i, ok := byID[rec.ID]; ok { // a state for an unknown id is stale noise
				jr.recovered[i].State = rec.State
				jr.recovered[i].Err = rec.Error
			}
		}
		return true
	})
	if err != nil {
		_ = log.Close()
		return nil, fmt.Errorf("campaign: journal: %w", err)
	}
	// Replay leaves non-terminal last-known states (queued, running) as
	// what they now are: interrupted.
	for i := range jr.recovered {
		if !jr.recovered[i].State.Terminal() {
			jr.recovered[i].State = apiv1.StateInterrupted
			if jr.recovered[i].Err == nil {
				jr.recovered[i].Err = &apiv1.Error{
					Type:    apiv1.ErrInterrupted,
					Message: "server stopped while the job was in flight; re-dispatched on journal replay",
				}
			}
		}
	}
	return jr, nil
}

// Recovered returns the jobs reconstructed by replay, in admission order.
func (jr *Journal) Recovered() []RecoveredJob { return jr.recovered }

// MaxSeq returns the highest numeric job id replayed ("j%06d" form), so a
// recovering server continues the id sequence instead of reissuing ids.
func (jr *Journal) MaxSeq() int { return jr.maxSeq }

// Path returns the journal's file path.
func (jr *Journal) Path() string { return jr.path }

// Submit durably records an admitted job: the record is appended and
// fsynced before return, so an acknowledged job can never be forgotten.
func (jr *Journal) Submit(id string, req *apiv1.JobRequest) error {
	line, err := apiv1.EncodeJournalSubmit(id, req)
	if err != nil {
		return fmt.Errorf("campaign: journal: %w", err)
	}
	return jr.append(line)
}

// Record durably records a lifecycle edge (terminal state or
// interruption) for a previously submitted job.
func (jr *Journal) Record(id string, state apiv1.JobState, jerr *apiv1.Error) error {
	line, err := apiv1.EncodeJournalState(id, state, jerr)
	if err != nil {
		return fmt.Errorf("campaign: journal: %w", err)
	}
	return jr.append(line)
}

// append writes one record and fsyncs it.
func (jr *Journal) append(line []byte) error {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	if err := jr.log.Append(line); err != nil {
		return fmt.Errorf("campaign: journal: %w", err)
	}
	return nil
}

// Sync forces the journal to disk (graceful-shutdown flush).
func (jr *Journal) Sync() error {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	if err := jr.log.Sync(); err != nil {
		return fmt.Errorf("campaign: journal: %w", err)
	}
	return nil
}

// Close fsyncs and closes the journal file.
func (jr *Journal) Close() error {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	if err := jr.log.Close(); err != nil {
		return fmt.Errorf("campaign: journal: %w", err)
	}
	return nil
}

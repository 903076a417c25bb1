package apiv1

import (
	"encoding/json"
	"fmt"

	"repro/internal/sim"
)

// Ledger record kinds. A ledger file (which is also what -checkpoint
// writes) holds completion records that are exactly v1 CheckpointRecords
// (kind absent or "complete"), so checkpoint files of bare completion
// lines load as ledgers; claim records — advisory "worker W is running
// fingerprint FP until deadline D" lines — carry the explicit kind
// "claim" so DecodeCheckpointRecord can never mistake one for a result.
const (
	// LedgerKindComplete marks a completed-run record. Completion records
	// written by this package omit the kind field entirely (they are plain
	// CheckpointRecords), but readers also accept the explicit tag.
	LedgerKindComplete = "complete"
	// LedgerKindClaim marks an advisory work claim.
	LedgerKindClaim = "claim"
	// LedgerKindPoison marks a quarantined fingerprint: the supervisor
	// observed the same point crash enough workers in a row that running
	// it again would only crash-loop. Workers that see a poison record
	// fail the point with a typed error instead of executing it. A later
	// completion record for the same fingerprint supersedes the poison
	// (someone proved the point runs after all).
	LedgerKindPoison = "poison"
)

// ClaimRecord is one advisory work claim in a ledger file: worker Worker
// intends to run the point with fingerprint FP and promises either a
// completion record or silence by Deadline. Claims are advisory — two
// workers that race a claim both run the point, and the deterministic
// results make the duplicate harmless — so a claim's only force is to let
// other workers wait instead of duplicating live work, and to expire so a
// killed worker's points get stolen.
type ClaimRecord struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`
	FP   string `json:"fp"`
	// Key is the claiming campaign's point label (diagnostic only).
	Key string `json:"key,omitempty"`
	// Worker identifies the claiming process (opaque; unique per worker).
	Worker string `json:"worker"`
	// Deadline is the claim's expiry, milliseconds since the Unix epoch.
	// After it passes without a completion record, any worker may steal
	// the point.
	Deadline int64 `json:"deadline_unix_ms"`
}

// EncodeClaimRecord renders one v1 claim line (no trailing newline).
func EncodeClaimRecord(fp, key, worker string, deadlineUnixMS int64) ([]byte, error) {
	return json.Marshal(ClaimRecord{
		V: Version, Kind: LedgerKindClaim, FP: fp, Key: key,
		Worker: worker, Deadline: deadlineUnixMS,
	})
}

// PoisonRecord is one quarantine line in a ledger file: the point with
// fingerprint FP crashed enough workers that Worker (the supervisor)
// withdrew it from circulation. Reason carries the human-readable
// evidence (crash count, exit status).
type PoisonRecord struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`
	FP   string `json:"fp"`
	// Key is the poisoned campaign point's label (diagnostic only).
	Key string `json:"key,omitempty"`
	// Worker identifies the process that declared the quarantine.
	Worker string `json:"worker"`
	// Reason is the one-line evidence for the quarantine.
	Reason string `json:"reason"`
}

// EncodePoisonRecord renders one v1 poison line (no trailing newline).
func EncodePoisonRecord(fp, key, worker, reason string) ([]byte, error) {
	return json.Marshal(PoisonRecord{
		V: Version, Kind: LedgerKindPoison, FP: fp, Key: key,
		Worker: worker, Reason: reason,
	})
}

// LedgerRecord is one decoded ledger line: a claim (Claim true,
// Worker/Deadline valid), a poison quarantine (Poison true, Reason
// valid), or a completion (neither flag, Res valid).
type LedgerRecord struct {
	Claim    bool
	Poison   bool
	FP, Key  string
	Worker   string
	Deadline int64 // milliseconds since the Unix epoch; claims only
	Reason   string
	Res      sim.Results
}

// DecodeLedgerRecord parses one ledger line of any kind. Unknown kinds
// and newer versions are errors; ledger readers treat an undecodable
// complete line as skippable noise (a multi-writer file cannot be
// truncated at the first bad record).
func DecodeLedgerRecord(line []byte) (LedgerRecord, error) {
	var probe struct {
		V    int    `json:"v"`
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(line, &probe); err != nil {
		return LedgerRecord{}, err
	}
	switch probe.Kind {
	case LedgerKindClaim:
		if probe.V != Version {
			return LedgerRecord{}, fmt.Errorf("apiv1: claim record version %d != %d", probe.V, Version)
		}
		var c ClaimRecord
		if err := json.Unmarshal(line, &c); err != nil {
			return LedgerRecord{}, err
		}
		if c.FP == "" || c.Worker == "" {
			return LedgerRecord{}, fmt.Errorf("apiv1: claim record missing fp or worker")
		}
		return LedgerRecord{Claim: true, FP: c.FP, Key: c.Key, Worker: c.Worker, Deadline: c.Deadline}, nil
	case LedgerKindPoison:
		if probe.V != Version {
			return LedgerRecord{}, fmt.Errorf("apiv1: poison record version %d != %d", probe.V, Version)
		}
		var p PoisonRecord
		if err := json.Unmarshal(line, &p); err != nil {
			return LedgerRecord{}, err
		}
		if p.FP == "" {
			return LedgerRecord{}, fmt.Errorf("apiv1: poison record missing fp")
		}
		return LedgerRecord{Poison: true, FP: p.FP, Key: p.Key, Worker: p.Worker, Reason: p.Reason}, nil
	case "", LedgerKindComplete:
		fp, key, res, err := DecodeCheckpointRecord(line)
		if err != nil {
			return LedgerRecord{}, err
		}
		return LedgerRecord{FP: fp, Key: key, Res: res}, nil
	default:
		return LedgerRecord{}, fmt.Errorf("apiv1: unknown ledger record kind %q", probe.Kind)
	}
}

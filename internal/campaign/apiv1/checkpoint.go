package apiv1

import (
	"encoding/json"
	"fmt"

	"repro/internal/sim"
)

// CheckpointRecord is one completion line of a sweep ledger (checkpoint)
// file — the same schema, version tag included, that the campaign
// service's API payloads use for results.
type CheckpointRecord struct {
	// V is the wire-format version (Version for records written by this
	// package; 0 only appears when decoding legacy pre-versioned files).
	V int `json:"v"`
	// FP is the point's memoization fingerprint (sweep.Point.Fingerprint).
	FP string `json:"fp"`
	// Key is the submitting campaign's point label (diagnostic only).
	Key string `json:"key,omitempty"`
	// Res is the completed simulation's results.
	Res Results `json:"res"`
}

// EncodeCheckpointRecord renders one v1 checkpoint line (no trailing
// newline).
func EncodeCheckpointRecord(fp, key string, res sim.Results) ([]byte, error) {
	return json.Marshal(CheckpointRecord{V: Version, FP: fp, Key: key, Res: FromResults(res)})
}

// legacyRecord is the schema of pre-versioned checkpoint files: no "v" tag
// and results encoded with sim.Results' Go field names.
type legacyRecord struct {
	FP  string      `json:"fp"`
	Key string      `json:"key"`
	Res sim.Results `json:"res"`
}

// DecodeCheckpointRecord parses one checkpoint line. Records tagged with a
// newer version than this package understands are an error (callers treat
// that like corruption: the record re-runs); records with no tag decode
// under the legacy v0 schema so existing checkpoint files keep resuming.
func DecodeCheckpointRecord(line []byte) (fp, key string, res sim.Results, err error) {
	var probe struct {
		V    int             `json:"v"`
		Kind string          `json:"kind"`
		FP   string          `json:"fp"`
		Key  string          `json:"key"`
		Res  json.RawMessage `json:"res"`
	}
	if err = json.Unmarshal(line, &probe); err != nil {
		return "", "", sim.Results{}, err
	}
	if probe.Kind != "" && probe.Kind != LedgerKindComplete {
		// A ledger claim (or future non-result kind) carries no results; in
		// a checkpoint file it is corruption, not a resumable record.
		return "", "", sim.Results{}, fmt.Errorf("apiv1: record kind %q is not a checkpoint result", probe.Kind)
	}
	switch probe.V {
	case Version:
		var r Results
		if err = json.Unmarshal(probe.Res, &r); err != nil {
			return "", "", sim.Results{}, err
		}
		return probe.FP, probe.Key, r.Sim(), nil
	case 0:
		var r legacyRecord
		if err = json.Unmarshal(line, &r); err != nil {
			return "", "", sim.Results{}, err
		}
		return r.FP, r.Key, r.Res, nil
	default:
		return "", "", sim.Results{}, fmt.Errorf("apiv1: checkpoint record version %d > %d", probe.V, Version)
	}
}

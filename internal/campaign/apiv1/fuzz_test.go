package apiv1_test

import (
	"reflect"
	"testing"

	"repro/internal/campaign/apiv1"
)

// FuzzDecodeLedgerRecord hardens the durable-file codecs against arbitrary
// bytes, mirroring tracefile's FuzzReader: ledger lines (claim, poison,
// complete), checkpoint lines and journal lines must decode or reject
// cleanly — never panic, never loop — and any line a decoder accepts must
// survive an encode/decode round trip unchanged. These are the bytes a
// crash can tear and a full disk can truncate, so the decoders are the
// recovery path's first line of defense.
func FuzzDecodeLedgerRecord(f *testing.F) {
	res := run(f)
	if line, err := apiv1.EncodeCheckpointRecord("fp1", "k1", res); err == nil {
		f.Add(line)
		f.Add(line[:len(line)/2]) // torn completion
	}
	if line, err := apiv1.EncodeClaimRecord("fp2", "k2", "w3", 1700000000000); err == nil {
		f.Add(line)
		f.Add(line[:len(line)-4]) // torn claim
	}
	if line, err := apiv1.EncodePoisonRecord("fp3", "k3", "parent", "crashed 2 workers"); err == nil {
		f.Add(line)
	}
	if line, err := apiv1.EncodeJournalSubmit("j000001", &apiv1.JobRequest{Artefacts: []string{"table2"}}); err == nil {
		f.Add(line)
	}
	if line, err := apiv1.EncodeJournalState("j000001", apiv1.StateInterrupted,
		&apiv1.Error{Type: apiv1.ErrInterrupted, Message: "server stopped"}); err == nil {
		f.Add(line)
	}
	f.Add([]byte(`{"v":1,"kind":"claim"}`))                       // claim missing fp/worker
	f.Add([]byte(`{"v":1,"kind":"poison"}`))                      // poison missing fp
	f.Add([]byte(`{"v":9,"kind":"claim","fp":"x","worker":"w"}`)) // future version
	f.Add([]byte(`{"v":1,"kind":"gibberish","fp":"x"}`))          // unknown kind
	f.Add([]byte(`{"v":1,"kind":"submit","id":"j1"}`))            // submit missing request
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))
	f.Add([]byte(`[]`))

	f.Fuzz(func(t *testing.T, line []byte) {
		if rec, err := apiv1.DecodeLedgerRecord(line); err == nil {
			// An accepted ledger line re-encodes to a line that decodes to
			// the same record (claims and poisons have exact encoders; a
			// completion must already have survived DecodeCheckpointRecord).
			switch {
			case rec.Claim:
				enc, err := apiv1.EncodeClaimRecord(rec.FP, rec.Key, rec.Worker, rec.Deadline)
				if err != nil {
					t.Fatalf("accepted claim failed to encode: %v", err)
				}
				rt, err := apiv1.DecodeLedgerRecord(enc)
				if err != nil || !reflect.DeepEqual(rt, rec) {
					t.Fatalf("claim changed in round trip:\nwas %+v\nnow %+v (err %v)", rec, rt, err)
				}
			case rec.Poison:
				enc, err := apiv1.EncodePoisonRecord(rec.FP, rec.Key, rec.Worker, rec.Reason)
				if err != nil {
					t.Fatalf("accepted poison failed to encode: %v", err)
				}
				rt, err := apiv1.DecodeLedgerRecord(enc)
				if err != nil || !reflect.DeepEqual(rt, rec) {
					t.Fatalf("poison changed in round trip:\nwas %+v\nnow %+v (err %v)", rec, rt, err)
				}
			default:
				enc, err := apiv1.EncodeCheckpointRecord(rec.FP, rec.Key, rec.Res)
				if err != nil {
					t.Fatalf("accepted completion failed to encode: %v", err)
				}
				fp, key, res, err := apiv1.DecodeCheckpointRecord(enc)
				if err != nil || fp != rec.FP || key != rec.Key || !reflect.DeepEqual(res, rec.Res) {
					t.Fatalf("completion changed in round trip (err %v)", err)
				}
			}
		}

		// The single-writer codecs must equally never panic.
		apiv1.DecodeCheckpointRecord(line)
		if rec, err := apiv1.DecodeJournalRecord(line); err == nil {
			var enc []byte
			var encErr error
			if rec.Kind == apiv1.JournalKindSubmit {
				enc, encErr = apiv1.EncodeJournalSubmit(rec.ID, rec.Req)
			} else {
				enc, encErr = apiv1.EncodeJournalState(rec.ID, rec.State, rec.Error)
			}
			if encErr != nil {
				t.Fatalf("accepted journal record failed to encode: %v", encErr)
			}
			rt, err := apiv1.DecodeJournalRecord(enc)
			if err != nil || !reflect.DeepEqual(rt, rec) {
				t.Fatalf("journal record changed in round trip:\nwas %+v\nnow %+v (err %v)", rec, rt, err)
			}
		}
	})
}

package apiv1_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaign/apiv1"
)

// TestJournalRecordRoundTrip pins the journal codec: both record kinds
// round-trip exactly and carry the version tag.
func TestJournalRecordRoundTrip(t *testing.T) {
	req := &apiv1.JobRequest{Artefacts: []string{"table2"}, Seeds: 3}
	line, err := apiv1.EncodeJournalSubmit("j000007", req)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(line), `"v":1`) {
		t.Fatalf("submit record is not version-tagged: %s", line)
	}
	rec, err := apiv1.DecodeJournalRecord(line)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != apiv1.JournalKindSubmit || rec.ID != "j000007" || !reflect.DeepEqual(rec.Req, req) {
		t.Fatalf("submit record changed across the codec: %+v", rec)
	}

	jerr := &apiv1.Error{Type: apiv1.ErrInterrupted, Message: "server stopped"}
	line, err = apiv1.EncodeJournalState("j000007", apiv1.StateInterrupted, jerr)
	if err != nil {
		t.Fatal(err)
	}
	rec, err = apiv1.DecodeJournalRecord(line)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != apiv1.JournalKindState || rec.State != apiv1.StateInterrupted ||
		rec.Error == nil || rec.Error.Type != apiv1.ErrInterrupted {
		t.Fatalf("state record changed across the codec: %+v", rec)
	}
}

// TestJournalRecordRejects pins the journal decoder's validation: torn,
// versionless, future-versioned and incomplete lines are errors, never
// zero-valued records.
func TestJournalRecordRejects(t *testing.T) {
	for _, bad := range []string{
		`{"v":1,"kind":"submit","id":"j1"}`,                   // submit without request
		`{"v":1,"kind":"state","id":"j1"}`,                    // state without state
		`{"v":1,"kind":"state","id":"j1","state":"sideways"}`, // unknown state
		`{"v":1,"kind":"submit","req":{}}`,                    // missing id
		`{"v":2,"kind":"state","id":"j1","state":"done"}`,     // future version
		`{"kind":"state","id":"j1","state":"done"}`,           // versionless
		`{"v":1,"kind":"compact","id":"j1"}`,                  // unknown kind
		`{"v":1,"kind":"sub`,                                  // torn tail
	} {
		if _, err := apiv1.DecodeJournalRecord([]byte(bad)); err == nil {
			t.Errorf("accepted bad journal line %s", bad)
		}
	}
}

// TestPoisonRecordRoundTrip pins the quarantine codec and its place in the
// ledger record taxonomy.
func TestPoisonRecordRoundTrip(t *testing.T) {
	line, err := apiv1.EncodePoisonRecord("fpX", "table2/mcf", "parent", "crashed 2 workers (exit 17)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(line), `"kind":"poison"`) {
		t.Fatalf("poison record is not kind-tagged: %s", line)
	}
	rec, err := apiv1.DecodeLedgerRecord(line)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Poison || rec.Claim || rec.FP != "fpX" || rec.Key != "table2/mcf" ||
		rec.Worker != "parent" || !strings.Contains(rec.Reason, "crashed 2 workers") {
		t.Fatalf("poison record changed across the codec: %+v", rec)
	}
	if _, err := apiv1.DecodeLedgerRecord([]byte(`{"v":1,"kind":"poison","key":"k"}`)); err == nil {
		t.Fatal("accepted poison record without fingerprint")
	}
	if _, err := apiv1.DecodeLedgerRecord([]byte(`{"v":3,"kind":"poison","fp":"f"}`)); err == nil {
		t.Fatal("accepted future-version poison record")
	}
}

// TestInterruptedNotTerminal pins the recovery contract: interrupted is a
// resumable state, so replay re-dispatches it instead of archiving it.
func TestInterruptedNotTerminal(t *testing.T) {
	if apiv1.StateInterrupted.Terminal() {
		t.Fatal("interrupted must not be terminal — replay re-dispatches it")
	}
	for _, s := range []apiv1.JobState{apiv1.StateDone, apiv1.StateFailed, apiv1.StateCancelled} {
		if !s.Terminal() {
			t.Fatalf("%s must stay terminal", s)
		}
	}
}

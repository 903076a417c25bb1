package campaign_test

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/campaign/apiv1"
	"repro/internal/failpoint"
	"repro/internal/sweep"
)

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "jobs.journal")
}

func openJournal(t *testing.T, path string) *campaign.Journal {
	t.Helper()
	jr, err := campaign.OpenJournal(path)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	return jr
}

// startOwned brings up a journaled service whose shutdown the test drives
// explicitly (crash-recovery tests close mid-test and boot a successor).
// The returned stop func is idempotent and also registered as a cleanup.
func startOwned(t *testing.T, cfg campaign.Config) (*httptest.Server, func()) {
	t.Helper()
	svc := campaign.New(cfg)
	ts := httptest.NewServer(svc)
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		ts.Close()
		svc.Close()
	}
	t.Cleanup(stop)
	return ts, stop
}

// referenceText runs req on a fresh journal-less server and returns the
// rendered text artefacts — the byte-identity oracle for recovery runs.
func referenceText(t *testing.T, req apiv1.JobRequest) string {
	t.Helper()
	_, ts := start(t, campaign.Config{Engine: sweep.New(sweep.Workers(4))})
	created := postJob(t, ts, req)
	waitState(t, ts, created.ID, apiv1.StateDone)
	text, code := getBody(t, ts.URL+"/v1/jobs/"+created.ID+"/artefacts?format=text")
	if code != http.StatusOK {
		t.Fatalf("reference artefacts: HTTP %d", code)
	}
	return text
}

// TestJournalKill9Replay is the crash-recovery tentpole: a journal holding
// only a fsynced submit record — exactly what a kill -9 after the 202
// leaves behind, torn tail included — re-materializes the job on boot,
// re-dispatches it under its original ID with the typed
// interrupted→resumed history, and serves artefacts byte-identical to an
// uninterrupted run.
func TestJournalKill9Replay(t *testing.T) {
	req := tinyReq()
	want := referenceText(t, req)

	// Fabricate the crash state by hand: one durable submit record plus the
	// torn tail of a state record the dying process never finished writing.
	path := journalPath(t)
	line, err := apiv1.EncodeJournalSubmit("j000003", &req)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte{}, line...), '\n')
	torn = append(torn, []byte(`{"v":1,"kind":"state","id":"j0`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	jr := openJournal(t, path)
	defer jr.Close()
	recs := jr.Recovered()
	if len(recs) != 1 || recs[0].ID != "j000003" || recs[0].State != apiv1.StateInterrupted {
		t.Fatalf("replay: %+v", recs)
	}
	if recs[0].Err == nil || recs[0].Err.Type != apiv1.ErrInterrupted {
		t.Fatalf("interrupted job carries %+v, want typed %s", recs[0].Err, apiv1.ErrInterrupted)
	}
	if jr.MaxSeq() != 3 {
		t.Fatalf("MaxSeq = %d, want 3", jr.MaxSeq())
	}

	ts, stop := startOwned(t, campaign.Config{
		Engine:  sweep.New(sweep.Workers(4)),
		Journal: jr,
	})

	// The job is reachable under its original ID, marked recovered, and
	// runs to completion without being resubmitted.
	st := waitState(t, ts, "j000003", apiv1.StateDone)
	if !st.Recovered {
		t.Fatal("recovered job not flagged Recovered")
	}
	evs := followEvents(t, ts, "j000003")
	if len(evs) < 3 {
		t.Fatalf("short event log: %+v", evs)
	}
	if evs[0].Type != "error" || evs[0].State != apiv1.StateInterrupted ||
		evs[0].Error == nil || evs[0].Error.Type != apiv1.ErrInterrupted {
		t.Fatalf("event 0 = %+v, want typed interrupted error", evs[0])
	}
	if evs[1].Type != "resumed" || evs[1].State != apiv1.StateQueued {
		t.Fatalf("event 1 = %+v, want resumed→queued", evs[1])
	}
	if last := evs[len(evs)-1]; last.Type != "state" || last.State != apiv1.StateDone {
		t.Fatalf("last event = %+v, want done", last)
	}

	got, code := getBody(t, ts.URL+"/v1/jobs/j000003/artefacts?format=text")
	if code != http.StatusOK {
		t.Fatalf("artefacts: HTTP %d", code)
	}
	if got != want {
		t.Fatalf("recovered artefacts differ from uninterrupted run:\n--- recovered ---\n%s\n--- reference ---\n%s", got, want)
	}

	// The id sequence continues past every replayed id.
	created := postJob(t, ts, req)
	if created.ID != "j000004" {
		t.Fatalf("post-recovery id = %s, want j000004", created.ID)
	}
	waitState(t, ts, created.ID, apiv1.StateDone)
	stop()

	// The journal now carries both jobs' done records: a second replay
	// serves them as terminal history whose outputs did not survive.
	jr2 := openJournal(t, path)
	defer jr2.Close()
	for _, rec := range jr2.Recovered() {
		if rec.State != apiv1.StateDone {
			t.Fatalf("second replay: job %s is %q, want done", rec.ID, rec.State)
		}
	}
	ts2, _ := startOwned(t, campaign.Config{Engine: sweep.New(sweep.Workers(4)), Journal: jr2})
	st2 := jobStatus(t, ts2, "j000003")
	if st2.State != apiv1.StateDone || !st2.Recovered {
		t.Fatalf("replayed history: %+v", st2)
	}
	if _, code := getBody(t, ts2.URL+"/v1/jobs/j000003/artefacts"); code != http.StatusGone {
		t.Fatalf("recovered history artefacts: HTTP %d, want 410", code)
	}
}

// TestJournalGracefulShutdownResume pins the shutdown side of durability:
// Close marks in-flight jobs interrupted (typed, resumable) rather than
// cancelled, and a successor server replays them byte-identically.
func TestJournalGracefulShutdownResume(t *testing.T) {
	req := tinyReq()
	want := referenceText(t, req)

	path := journalPath(t)
	jrA := openJournal(t, path)
	tsA, stopA := startOwned(t, campaign.Config{
		Engine:        sweep.New(sweep.Workers(2)),
		MaxConcurrent: 1,
		Journal:       jrA,
	})

	big := postJob(t, tsA, slowReq())
	waitState(t, tsA, big.ID, apiv1.StateRunning)
	small := postJob(t, tsA, req) // queued behind the only slot

	stopA()
	if err := jrA.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}

	jrB := openJournal(t, path)
	defer jrB.Close()
	recs := jrB.Recovered()
	if len(recs) != 2 {
		t.Fatalf("replay found %d jobs, want 2: %+v", len(recs), recs)
	}
	for _, rec := range recs {
		if rec.State != apiv1.StateInterrupted {
			t.Fatalf("job %s replayed as %q, want interrupted", rec.ID, rec.State)
		}
		if rec.Err == nil || rec.Err.Type != apiv1.ErrInterrupted ||
			!strings.Contains(rec.Err.Message, "shut down") {
			t.Fatalf("job %s interruption error: %+v", rec.ID, rec.Err)
		}
	}

	tsB, _ := startOwned(t, campaign.Config{
		Engine:        sweep.New(sweep.Workers(2)),
		MaxConcurrent: 1,
		Journal:       jrB,
	})
	// Recovered jobs keep their admission order: the slow one occupies the
	// slot again. Cancel it — recovered jobs accept the full API — and let
	// the small one finish.
	waitState(t, tsB, big.ID, apiv1.StateRunning)
	if st := cancelJob(t, tsB, big.ID); st.State != apiv1.StateCancelled {
		t.Fatalf("cancel recovered job: %q", st.State)
	}
	waitState(t, tsB, small.ID, apiv1.StateDone)
	got, code := getBody(t, tsB.URL+"/v1/jobs/"+small.ID+"/artefacts?format=text")
	if code != http.StatusOK {
		t.Fatalf("resumed artefacts: HTTP %d", code)
	}
	if got != want {
		t.Fatal("resumed job's artefacts differ from the uninterrupted reference")
	}
}

// TestJournalReplaySemantics pins the replay rules at the API level:
// duplicate submits are ignored, states for unknown ids are skipped,
// terminal records freeze a job, and everything else comes back
// interrupted.
func TestJournalReplaySemantics(t *testing.T) {
	path := journalPath(t)
	req := tinyReq()

	jr := openJournal(t, path)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(jr.Submit("j000001", &req))
	must(jr.Record("j000001", apiv1.StateDone, nil))
	must(jr.Submit("j000002", &req))
	must(jr.Submit("j000002", &req))                   // duplicate: first wins
	must(jr.Record("j000009", apiv1.StateFailed, nil)) // unknown id: skipped
	must(jr.Submit("j000005", &req))
	must(jr.Record("j000005", apiv1.StateCancelled,
		&apiv1.Error{Type: apiv1.ErrQueueFull, Message: "rejected at admission: queue full"}))
	must(jr.Close())

	jr2 := openJournal(t, path)
	defer jr2.Close()
	recs := jr2.Recovered()
	if len(recs) != 3 {
		t.Fatalf("replayed %d jobs, want 3: %+v", len(recs), recs)
	}
	if recs[0].ID != "j000001" || recs[0].State != apiv1.StateDone || recs[0].Err != nil {
		t.Fatalf("rec 0: %+v", recs[0])
	}
	if recs[1].ID != "j000002" || recs[1].State != apiv1.StateInterrupted || recs[1].Err == nil {
		t.Fatalf("rec 1: %+v", recs[1])
	}
	if recs[2].ID != "j000005" || recs[2].State != apiv1.StateCancelled ||
		recs[2].Err == nil || recs[2].Err.Type != apiv1.ErrQueueFull {
		t.Fatalf("rec 2: %+v", recs[2])
	}
	if jr2.MaxSeq() != 5 {
		t.Fatalf("MaxSeq = %d, want 5", jr2.MaxSeq())
	}
}

// TestJournalTornTailTruncated pins torn-write handling: a complete but
// undecodable line (the capped fragment of a failed mid-file append) is
// skipped — the fsynced records behind it survive — an unterminated
// trailing fragment (a crash mid-write) is cut from the replay, and the
// journal stays appendable afterwards.
func TestJournalTornTailTruncated(t *testing.T) {
	path := journalPath(t)
	req := tinyReq()
	first, err := apiv1.EncodeJournalSubmit("j000001", &req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := apiv1.EncodeJournalSubmit("j000002", &req)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	buf = append(append(buf, first...), '\n')
	buf = append(buf, []byte("{\"torn fragment, repaired\n")...) // complete bad line: skip
	buf = append(append(buf, second...), '\n')
	buf = append(buf, []byte(`{"v":1,"kind":"sub`)...) // unterminated tail: not a record
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	jr := openJournal(t, path)
	recs := jr.Recovered()
	if len(recs) != 2 || recs[0].ID != "j000001" || recs[1].ID != "j000002" {
		t.Fatalf("replay across repaired fragment: %+v", recs)
	}
	// The repaired journal keeps appending cleanly.
	if err := jr.Submit("j000003", &req); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	jr2 := openJournal(t, path)
	defer jr2.Close()
	if recs := jr2.Recovered(); len(recs) != 3 || recs[2].ID != "j000003" {
		t.Fatalf("post-repair replay: %+v", recs)
	}
}

// TestJournalFailpointSubmitRejected proves the durability contract end to
// end under injected I/O failure: a submission whose journal write fails is
// rejected (500, typed) and leaves no trace — not in the server, not in the
// replay — while the next submission lands cleanly on the repaired tail.
func TestJournalFailpointSubmitRejected(t *testing.T) {
	for _, tc := range []struct {
		name, spec string
	}{
		{"torn-append-enospc", "journal.append=enospc"},
		{"fsync-error", "journal.sync=err"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := journalPath(t)
			jr := openJournal(t, path)
			ts, stop := startOwned(t, campaign.Config{
				Engine:  sweep.New(sweep.Workers(2)),
				Journal: jr,
			})

			if err := failpoint.Arm(tc.spec); err != nil {
				t.Fatal(err)
			}
			defer failpoint.Disarm()
			_, code := tryPostJob(t, ts, tinyReq())
			if code != http.StatusInternalServerError {
				t.Fatalf("submit with failing journal: HTTP %d, want 500", code)
			}
			failpoint.Disarm()

			// The rejected job left no registration: the next submission
			// succeeds, gets a fresh id, and the (possibly torn) tail heals.
			created := postJob(t, ts, tinyReq())
			waitState(t, ts, created.ID, apiv1.StateDone)
			stop()
			if err := jr.Close(); err != nil {
				t.Fatal(err)
			}

			// Replay must not resurrect the rejected job: depending on where
			// the write failed its submit record is either torn away or
			// superseded by a cancelled record — never resumable.
			jr2 := openJournal(t, path)
			defer jr2.Close()
			var sawAccepted bool
			for _, rec := range jr2.Recovered() {
				switch rec.ID {
				case created.ID:
					sawAccepted = true
					if rec.State != apiv1.StateDone {
						t.Fatalf("accepted job replayed as %q, want done", rec.State)
					}
				default:
					if rec.State != apiv1.StateCancelled {
						t.Fatalf("rejected job %s replayed as %q, want cancelled", rec.ID, rec.State)
					}
				}
			}
			if !sawAccepted {
				t.Fatalf("accepted job %s missing from replay: %+v", created.ID, jr2.Recovered())
			}
		})
	}
}

// TestJournalDegradedHealth pins the post-admission failure story: when a
// lifecycle record cannot be written, the job still finishes but the
// server reports itself degraded — its replay is no longer faithful.
func TestJournalDegradedHealth(t *testing.T) {
	path := journalPath(t)
	jr := openJournal(t, path)
	defer jr.Close()
	ts, _ := startOwned(t, campaign.Config{
		Engine:        sweep.New(sweep.Workers(2)),
		MaxConcurrent: 1,
		Journal:       jr,
	})

	big := postJob(t, ts, slowReq())
	waitState(t, ts, big.ID, apiv1.StateRunning)
	small := postJob(t, ts, tinyReq()) // queued: its cancel record is the victim

	if err := failpoint.Arm("journal.append=err"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm()
	if st := cancelJob(t, ts, small.ID); st.State != apiv1.StateCancelled {
		t.Fatalf("cancel: %q", st.State)
	}
	failpoint.Disarm()

	var h apiv1.Health
	if code := getJSON(t, ts.URL+"/v1/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	if !strings.HasPrefix(h.Status, "degraded") {
		t.Fatalf("health after journal failure: %q, want degraded", h.Status)
	}
	cancelJob(t, ts, big.ID)
}

// TestJournalQueueFullCancelRecord pins admission-overflow durability: a
// 429'd job's submit record is superseded by a cancelled record, so replay
// does not resurrect work the client was told to retry.
func TestJournalQueueFullCancelRecord(t *testing.T) {
	path := journalPath(t)
	jr := openJournal(t, path)
	ts, stop := startOwned(t, campaign.Config{
		Engine:        sweep.New(sweep.Workers(2)),
		MaxQueue:      1,
		MaxConcurrent: 1,
		Journal:       jr,
	})

	running := postJob(t, ts, slowReq())
	waitState(t, ts, running.ID, apiv1.StateRunning)
	queued := postJob(t, ts, slowReq()) // fills the single queue slot
	_, code := tryPostJob(t, ts, tinyReq())
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: HTTP %d, want 429", code)
	}
	cancelJob(t, ts, queued.ID)
	cancelJob(t, ts, running.ID)
	stop()
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	jr2 := openJournal(t, path)
	defer jr2.Close()
	for _, rec := range jr2.Recovered() {
		if rec.State != apiv1.StateCancelled {
			t.Fatalf("job %s replayed as %q, want cancelled (nothing resumable)", rec.ID, rec.State)
		}
	}
	if n := len(jr2.Recovered()); n != 3 {
		t.Fatalf("replayed %d jobs, want 3 (two cancelled + one 429'd)", n)
	}
}

// TestJournalInvalidRequestFailsTyped pins re-validation on replay: a
// journaled request that no longer parses (e.g. an artefact renamed between
// releases) recovers as a typed failure instead of crashing the boot.
func TestJournalInvalidRequestFailsTyped(t *testing.T) {
	path := journalPath(t)
	bad := tinyReq()
	bad.Artefacts = []string{"no-such-artefact"}
	line, err := apiv1.EncodeJournalSubmit("j000001", &bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	jr := openJournal(t, path)
	defer jr.Close()
	ts, _ := startOwned(t, campaign.Config{Engine: sweep.New(sweep.Workers(2)), Journal: jr})
	st := jobStatus(t, ts, "j000001")
	if st.State != apiv1.StateFailed || st.Error == nil || st.Error.Type != apiv1.ErrBadRequest {
		t.Fatalf("invalid recovered request: %+v", st)
	}
}

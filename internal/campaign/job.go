package campaign

import (
	"context"
	"sync"
	"time"

	"repro/internal/campaign/apiv1"
	"repro/internal/experiments"
	"repro/internal/sweep"
)

// progressCap bounds a job's replayable event log: once reached, successive
// progress events coalesce into the final slot (state/error events always
// append). Progress counters are monotonic snapshots, so coalescing loses
// no information a late subscriber could act on.
const progressCap = 1024

// job is one submitted campaign and everything the API serves about it:
// request, lifecycle, job-scoped engine handle, event log and outputs.
type job struct {
	id   string
	req  apiv1.JobRequest
	spec experiments.Spec
	arts []experiments.Artefact
	pts  []sweep.Point
	// budget is the job's effective run budget (engine submissions), the
	// server cap tightened by the request. Zero disables the cap.
	budget int

	// cancel aborts the job cooperatively: queued jobs are skipped when
	// popped, running jobs stop through the engine's per-run stop channels.
	ctx    context.Context
	cancel context.CancelFunc

	// mu guards the state words below; the run itself happens outside it.
	// //vsv:hotlock
	mu       sync.Mutex
	state    apiv1.JobState
	created  time.Time
	started  time.Time
	finished time.Time
	err      *apiv1.Error
	// recovered marks a job re-materialized from the journal after a
	// restart (terminal history, or an interrupted job re-dispatched).
	recovered bool
	// sw is the job-scoped engine handle, set when the job starts running;
	// its Stats are this job's progress, untouched by concurrent jobs.
	sw *sweep.Job
	// outputs are the rendered artefacts (artefact order); points are the
	// raw-point outcomes. Both set exactly once, at completion.
	outputs []experiments.Output
	points  []apiv1.PointResult

	// events is the replayable JSONL stream; wake is closed and replaced
	// on every append so any number of subscribers can block on it.
	events []apiv1.Event
	wake   chan struct{}
}

func newJob(id string, req apiv1.JobRequest, base context.Context) *job {
	ctx, cancel := context.WithCancel(base)
	j := &job{
		id:      id,
		req:     req,
		ctx:     ctx,
		cancel:  cancel,
		state:   apiv1.StateQueued,
		created: time.Now(),
		wake:    make(chan struct{}),
	}
	j.appendStateEventLocked() // no subscribers yet; lock not needed but harmless
	return j
}

// newRecoveredJob materializes a journal-replayed job. A terminal state
// comes back frozen as history (one event: the final state). An
// interrupted job comes back resumable: its event log opens with the typed
// interrupted→resumed history and the job re-enters the queue under its
// original ID — the deterministic engine makes the rerun byte-identical to
// what the dead process would have produced.
func newRecoveredJob(id string, req apiv1.JobRequest, base context.Context, rec RecoveredJob) *job {
	ctx, cancel := context.WithCancel(base)
	j := &job{
		id:        id,
		req:       req,
		ctx:       ctx,
		cancel:    cancel,
		created:   time.Now(), // original times did not survive the crash
		recovered: true,
		wake:      make(chan struct{}),
	}
	if rec.State.Terminal() {
		j.state = rec.State
		j.err = rec.Err
		if rec.Err != nil {
			j.appendLocked(apiv1.Event{Type: "error", State: rec.State, Error: rec.Err})
		} else {
			j.appendStateEventLocked()
		}
		return j
	}
	// Resumable: replay the interruption, then announce the re-dispatch.
	j.state = apiv1.StateInterrupted
	j.appendLocked(apiv1.Event{Type: "error", State: apiv1.StateInterrupted, Error: rec.Err})
	j.state = apiv1.StateQueued
	j.appendLocked(apiv1.Event{Type: "resumed", State: apiv1.StateQueued})
	return j
}

// appendLocked appends ev (stamping V and Seq) and wakes subscribers.
// Callers hold j.mu.
func (j *job) appendLocked(ev apiv1.Event) {
	ev.V = apiv1.Version
	// Coalesce runaway progress streams into the last slot once the log is
	// at capacity; Seq still advances so subscribers see the update.
	if ev.Type == "progress" && len(j.events) >= progressCap &&
		j.events[len(j.events)-1].Type == "progress" {
		ev.Seq = j.events[len(j.events)-1].Seq + 1
		j.events[len(j.events)-1] = ev
	} else {
		if n := len(j.events); n > 0 {
			ev.Seq = j.events[n-1].Seq + 1
		}
		j.events = append(j.events, ev)
	}
	close(j.wake)
	j.wake = make(chan struct{})
}

func (j *job) appendStateEventLocked() {
	j.appendLocked(apiv1.Event{Type: "state", State: j.state})
}

// setState moves the job to a new lifecycle state and emits a state event
// (plus an error event when the state carries one). It reports whether the
// transition applied: terminal states are final, and interrupted freezes
// the job too — once shutdown has marked a job resumable, the unwinding
// run loop must not re-label it cancelled (the journal record is already
// written, and replay trusts it).
func (j *job) setState(s apiv1.JobState, jerr *apiv1.Error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() || j.state == apiv1.StateInterrupted {
		return false // cancellation or interruption already won the race
	}
	j.state = s
	switch s {
	case apiv1.StateRunning:
		j.started = time.Now()
	case apiv1.StateDone, apiv1.StateFailed, apiv1.StateCancelled:
		j.finished = time.Now()
	}
	if jerr != nil {
		j.err = jerr
		j.appendLocked(apiv1.Event{Type: "error", State: s, Error: jerr})
		return true
	}
	j.appendStateEventLocked()
	return true
}

// noteProgress emits a progress event from the job-scoped engine counters.
func (j *job) noteProgress(p apiv1.JobProgress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.appendLocked(apiv1.Event{Type: "progress", State: j.state, Progress: &p})
}

// State returns the current lifecycle state.
func (j *job) State() apiv1.JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// progress snapshots the job-scoped engine counters (zero before start).
func (j *job) progress() apiv1.JobProgress {
	j.mu.Lock()
	sw := j.sw
	j.mu.Unlock()
	if sw == nil {
		return apiv1.JobProgress{}
	}
	return progressFromStats(sw.Stats())
}

func progressFromStats(st sweep.Stats) apiv1.JobProgress {
	return apiv1.JobProgress{
		PointsSubmitted: st.Points,
		PointsDone:      st.Ran + st.CacheHits + st.LedgerHits,
		Ran:             st.Ran,
		CacheHits:       st.CacheHits,
		CheckpointHits:  st.LedgerHits,
		Failed:          st.Failed,
		Retried:         st.Retried,
	}
}

// status renders the job's API status document.
func (j *job) status() apiv1.JobStatus {
	prog := j.progress()
	j.mu.Lock()
	defer j.mu.Unlock()
	st := apiv1.JobStatus{
		V:         apiv1.Version,
		ID:        j.id,
		State:     j.state,
		CreatedAt: j.created,
		Progress:  prog,
		Error:     j.err,
		Recovered: j.recovered,
	}
	for _, a := range j.arts {
		st.Artefacts = append(st.Artefacts, a.Name)
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	for _, pr := range j.points {
		ps := apiv1.PointStatus{Key: pr.Key, State: apiv1.StateDone, Error: pr.Error}
		if pr.Error != nil {
			ps.State = apiv1.StateFailed
			if pr.Error.Type == apiv1.ErrCancelled {
				ps.State = apiv1.StateCancelled
			}
		}
		st.Points = append(st.Points, ps)
	}
	return st
}

// snapshotEvents returns the events from index i on, plus whether the job
// is terminal and the channel to wait on for more.
func (j *job) snapshotEvents(i int) ([]apiv1.Event, bool, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var tail []apiv1.Event
	if i < len(j.events) {
		tail = append(tail, j.events[i:]...)
	}
	return tail, j.state.Terminal(), j.wake
}

// setOutputs stores the completed campaign's artefacts and point outcomes.
func (j *job) setOutputs(outs []experiments.Output, points []apiv1.PointResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.outputs = outs
	j.points = points
}

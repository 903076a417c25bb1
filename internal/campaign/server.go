// Package campaign is the long-running HTTP JSON service over the sweep
// engine: a warm process that accepts simulation campaigns as jobs, executes
// them against one shared engine (so the fingerprint-keyed memo cache is
// shared across jobs — a repeated campaign is nearly free), and serves
// status, streamed progress and rendered artefacts back over a small,
// versioned API (internal/campaign/apiv1).
//
// The API surface, all JSON, all under /v1:
//
//	POST   /v1/jobs                submit a campaign (apiv1.JobRequest) → 202 apiv1.JobCreated
//	GET    /v1/jobs                list jobs (apiv1.JobList)
//	GET    /v1/jobs/{id}           status + per-point progress (apiv1.JobStatus)
//	GET    /v1/jobs/{id}/events    chunked JSON-lines progress stream (apiv1.Event)
//	GET    /v1/jobs/{id}/artefacts rendered artefacts (apiv1.ArtefactsResponse;
//	                               ?format=text streams the exact cmd/experiments bytes)
//	DELETE /v1/jobs/{id}           cooperative cancellation → apiv1.JobStatus
//	GET    /v1/healthz             liveness (apiv1.Health)
//	GET    /v1/stats               shared-engine + admission counters (apiv1.StatsSnapshot)
//
// Admission control is three-layered: a bounded job queue (submissions
// beyond it are rejected with 429 queue_full rather than buffered without
// bound), a fixed number of admitted (running) jobs, and a per-job run
// budget enforced by the engine (sweep.MaxPoints) so one job cannot
// monopolize the engine by fanning out an enormous sweep. Concurrent
// simulations are bounded separately, across every admitted job, by the
// shared engine's workers (sweep.Workers).
package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/campaign/apiv1"
	"repro/internal/experiments"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Config parameterizes a Server. The zero value is usable: a private
// engine, 16 queue slots, 2 concurrent jobs, no per-job run budget.
type Config struct {
	// Engine is the shared sweep engine every job runs on. Nil builds a
	// private one with default workers. Passing an engine with a ledger
	// attached gives the service warm-start across process lifetimes.
	Engine *sweep.Engine
	// Options seeds each job's experiment options (windows, slow-tick);
	// per-request fields override the non-zero ones.
	Options experiments.Options
	// MaxQueue bounds the number of jobs queued but not yet running
	// (default 16). Submissions beyond it fail with 429 queue_full.
	MaxQueue int
	// MaxConcurrent bounds the jobs admitted to run at once (default 2).
	// It limits admission only: the simulations of every running job share
	// the engine's worker bound (sweep.Workers).
	MaxConcurrent int
	// MaxPointsPerJob caps each job's engine submissions (0 = unlimited).
	// Requests may tighten it per job (RunBudget) but never exceed it.
	MaxPointsPerJob int
	// MaxDoneJobs bounds how many terminal (done, failed, cancelled) job
	// records — rendered artefacts, point results, event logs — the server
	// retains (0 = unlimited). Oldest-submitted terminal jobs are evicted
	// first; an evicted id answers with the typed not_found error.
	MaxDoneJobs int
	// Journal, when set, makes admitted jobs durable: every submission is
	// fsynced to it before the 202, terminal states and shutdown
	// interruptions are recorded, and New replays it — terminal jobs come
	// back as history (without their rendered outputs), interrupted ones
	// re-enter the queue under their original IDs. The caller owns the
	// journal's lifetime (Close it after the server).
	Journal *Journal
}

// Server is the campaign service. Create with New, serve with any
// http.Server (it implements http.Handler), stop with Close.
type Server struct {
	cfg    Config
	engine *sweep.Engine
	mux    *http.ServeMux

	// base is the server's lifetime context: every job's context derives
	// from it, so Close cancels all queued and running work.
	base context.Context
	stop context.CancelFunc

	queue chan *job
	wg    sync.WaitGroup

	// mu guards the registry maps; journal writes happen outside it.
	// //vsv:hotlock
	mu     sync.Mutex
	jobs   map[string]*job
	order  []*job // submission order; ranged instead of the map for determinism
	nextID int
	closed bool
	// journalErr is the first journal write failure after admission (a
	// failed submit record rejects the submission instead); the server
	// keeps running but reports "degraded" on /v1/healthz, because its
	// replay story is no longer complete.
	journalErr error
}

// New builds the service and starts its job slots.
func New(cfg Config) *Server {
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 16
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	eng := cfg.Engine
	if eng == nil {
		eng = sweep.New()
	}
	base, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		engine: eng,
		mux:    http.NewServeMux(),
		base:   base,
		stop:   stop,
		jobs:   make(map[string]*job),
	}
	// Journal replay happens before the queue is sized and the job slots
	// start, so every interrupted job is guaranteed a queue slot: recovery
	// must never be load-shed by its own backlog.
	var resume []*job
	if cfg.Journal != nil {
		resume = s.recoverJobs()
	}
	s.queue = make(chan *job, cfg.MaxQueue+len(resume))
	for _, j := range resume {
		s.queue <- j
	}
	s.routes()
	for i := 0; i < cfg.MaxConcurrent; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// recoverJobs materializes the journal's replayed jobs: terminal ones as
// retained history, interrupted ones as queued work under their original
// IDs. It returns the jobs to re-dispatch, in admission order, and leaves
// s.nextID past every recovered ID. Runs before the server is reachable,
// so no locking subtleties apply.
func (s *Server) recoverJobs() []*job {
	var resume []*job
	for _, rec := range s.cfg.Journal.Recovered() {
		j := newRecoveredJob(rec.ID, rec.Req, s.base, rec)
		if !rec.State.Terminal() {
			// Re-validate against today's vocabulary: a request that no
			// longer parses (renamed artefact, dropped benchmark) fails
			// typed instead of crashing the recovery loop.
			spec, arts, pts, budget, aerr := s.prepare(rec.Req)
			if aerr != nil {
				s.setJobState(j, apiv1.StateFailed, aerr)
			} else {
				j.spec, j.arts, j.pts, j.budget = spec, arts, pts, budget
				resume = append(resume, j)
			}
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j)
	}
	s.nextID = s.cfg.Journal.MaxSeq()
	s.evictDoneLocked() // recovered history obeys the retention bound too
	return resume
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/artefacts", s.handleArtefacts)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound,
			&apiv1.Error{Type: apiv1.ErrNotFound, Message: "no such endpoint: " + r.URL.Path})
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close stops the server and rejects subsequent submissions. Idempotent.
//
// Without a journal, every queued and running job is cancelled — the
// pre-durability behavior. With a journal, in-flight jobs are instead
// marked interrupted (typed, resumable) and the records fsynced before the
// engine is torn down, so a graceful shutdown leaves the same replayable
// journal a crash would — minus the torn tail.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	order := append([]*job(nil), s.order...)
	s.mu.Unlock()
	if s.cfg.Journal != nil {
		// Interrupt first, then cancel: the frozen interrupted state stops
		// the unwinding run loop from re-labelling the abort as cancelled,
		// and the journal records land before any context dies.
		for _, j := range order {
			s.setJobState(j, apiv1.StateInterrupted, &apiv1.Error{
				Type:    apiv1.ErrInterrupted,
				Message: "server shut down; the job resumes when a server replays this journal",
			})
		}
	}
	s.stop()
	for _, j := range order {
		j.cancel()
		if s.cfg.Journal == nil {
			j.setState(apiv1.StateCancelled, nil)
		}
	}
	s.wg.Wait()
	if s.cfg.Journal != nil {
		if err := s.cfg.Journal.Sync(); err != nil {
			s.mu.Lock()
			if s.journalErr == nil {
				s.journalErr = err
			}
			s.mu.Unlock()
		}
	}
}

// Engine exposes the shared engine (tests and embedding callers).
func (s *Server) Engine() *sweep.Engine { return s.engine }

// worker is one job slot: it pops queued jobs and runs them to a terminal
// state, one at a time.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.base.Done():
			return
		case j := <-s.queue:
			s.run(j)
			// The job just reached a terminal state; enforce the done-job
			// retention bound.
			s.mu.Lock()
			s.evictDoneLocked()
			s.mu.Unlock()
		}
	}
}

// evictDoneLocked enforces Config.MaxDoneJobs: while more than the bound
// of terminal jobs are retained, the oldest-submitted terminal jobs are
// dropped — records, rendered outputs and event logs together. Queued and
// running jobs are never evicted. Caller holds s.mu.
func (s *Server) evictDoneLocked() {
	bound := s.cfg.MaxDoneJobs
	if bound <= 0 {
		return
	}
	terminal := 0
	for _, j := range s.order {
		if j.State().Terminal() {
			terminal++
		}
	}
	if terminal <= bound {
		return
	}
	kept := make([]*job, 0, len(s.order))
	for _, j := range s.order {
		if terminal > bound && j.State().Terminal() {
			delete(s.jobs, j.id)
			terminal--
			continue
		}
		kept = append(kept, j)
	}
	s.order = kept
}

// run executes one job to a terminal state.
func (s *Server) run(j *job) {
	if st := j.State(); st.Terminal() || st == apiv1.StateInterrupted {
		return // cancelled (or interrupted by shutdown) while queued
	}

	// The job-scoped engine handle: progress and stats stay this job's own
	// while the memo cache stays shared, and the run budget is enforced at
	// every submission the job makes.
	var sw *sweep.Job
	sw = s.engine.NewJob(
		sweep.JobProgress(func(sweep.Progress) { j.noteProgress(progressFromStats(sw.Stats())) }),
		sweep.MaxPoints(j.budget),
	)
	j.mu.Lock()
	j.sw = sw
	j.mu.Unlock()
	j.setState(apiv1.StateRunning, nil)

	o := s.options(j.req)
	o.Job = sw
	o.Context = j.ctx

	fail := func(err error) {
		if j.ctx.Err() != nil {
			// The job was cancelled (DELETE or shutdown); whatever error the
			// abort surfaced is a consequence, not a diagnosis. (Under a
			// journal-interrupting shutdown the frozen interrupted state
			// makes this a no-op.)
			s.setJobState(j, apiv1.StateCancelled, nil)
			return
		}
		s.setJobState(j, apiv1.StateFailed, sweep.APIError(err))
	}

	outs, err := experiments.RunArtefacts(nil, o, j.spec, j.arts, false)
	if err != nil {
		fail(err)
		return
	}

	var points []apiv1.PointResult
	if len(j.pts) > 0 {
		prs, err := sw.RunAll(j.ctx, j.pts)
		if err != nil {
			fail(err) // planning failure: unhashable config or budget
			return
		}
		var firstErr error
		for _, pr := range prs {
			apr := apiv1.PointResult{Key: pr.Key}
			if pr.Err != nil {
				apr.Error = sweep.APIError(pr.Err)
				if firstErr == nil && apr.Error.Type != apiv1.ErrCancelled {
					firstErr = pr.Err
				}
			} else {
				res := apiv1.FromResults(pr.Res)
				apr.Benchmark = res.Benchmark
				apr.Res = &res
			}
			points = append(points, apr)
		}
		if firstErr != nil && !j.req.ContinueOnError {
			j.setOutputs(outs, points)
			fail(firstErr)
			return
		}
	}

	j.setOutputs(outs, points)
	if j.ctx.Err() != nil {
		s.setJobState(j, apiv1.StateCancelled, nil)
		return
	}
	s.setJobState(j, apiv1.StateDone, nil)
}

// options merges the server's defaults with the request's overrides.
func (s *Server) options(req apiv1.JobRequest) experiments.Options {
	o := s.cfg.Options
	if o.WarmupInstructions == 0 || o.MeasureInstructions == 0 {
		def := experiments.DefaultOptions()
		if o.WarmupInstructions == 0 {
			o.WarmupInstructions = def.WarmupInstructions
		}
		if o.MeasureInstructions == 0 {
			o.MeasureInstructions = def.MeasureInstructions
		}
	}
	if req.WarmupInstructions > 0 {
		o.WarmupInstructions = req.WarmupInstructions
	}
	if req.MeasureInstructions > 0 {
		o.MeasureInstructions = req.MeasureInstructions
	}
	if req.ForceSlowTick {
		o.ForceSlowTick = true
	}
	if req.ContinueOnError {
		o.ContinueOnError = true
	}
	o.Engine = nil // execution goes through the job handle
	return o
}

// budget resolves a request's effective run budget: the server cap,
// tightened (never widened) by the request.
func (s *Server) budget(req apiv1.JobRequest) int {
	b := s.cfg.MaxPointsPerJob
	if req.RunBudget > 0 && (b == 0 || req.RunBudget < b) {
		b = req.RunBudget
	}
	return b
}

// prepare validates a request and resolves everything a job needs to run:
// the experiment spec, the artefact set, the raw sweep points and the
// effective budget. Shared by live admission (handleSubmit) and journal
// replay (recoverJobs), so a recovered request faces exactly the checks a
// fresh one would.
func (s *Server) prepare(req apiv1.JobRequest) (experiments.Spec, []experiments.Artefact, []sweep.Point, int, *apiv1.Error) {
	spec := experiments.Spec{
		Benchmarks: req.Benchmarks,
		Thresholds: req.Thresholds,
		Seeds:      req.Seeds,
		Latencies:  req.Latencies,
	}
	if len(req.Artefacts) == 0 && len(req.Points) == 0 {
		return spec, nil, nil, 0, &apiv1.Error{Type: apiv1.ErrBadRequest,
			Message: "empty job: name at least one artefact or submit at least one point"}
	}
	arts, err := experiments.Artefacts(req.Artefacts...)
	if err != nil {
		return spec, nil, nil, 0, &apiv1.Error{Type: apiv1.ErrBadRequest, Message: err.Error()}
	}
	for _, b := range req.Benchmarks {
		if _, err := workload.ByName(b); err != nil {
			return spec, nil, nil, 0, &apiv1.Error{Type: apiv1.ErrBadRequest, Message: err.Error()}
		}
	}
	pts := make([]sweep.Point, len(req.Points))
	for i, p := range req.Points {
		if _, err := workload.ByName(p.Benchmark); err != nil {
			return spec, nil, nil, 0, &apiv1.Error{Type: apiv1.ErrBadRequest,
				Message: fmt.Sprintf("point %d: %v", i, err)}
		}
		key := p.Key
		if key == "" {
			key = fmt.Sprintf("p%d", i)
		}
		pts[i] = sweep.Point{Key: key, Benchmark: p.Benchmark, Seed: p.Seed, Config: p.Config}
	}
	budget := s.budget(req)
	if budget > 0 && len(pts) > budget {
		return spec, nil, nil, 0, &apiv1.Error{Type: apiv1.ErrBudget,
			Message: fmt.Sprintf("job submits %d raw points, over its run budget of %d", len(pts), budget)}
	}
	return spec, arts, pts, budget, nil
}

// setJobState applies a lifecycle transition and, when it took effect and
// the edge is durable (terminal or interrupted), journals it. A journal
// write failure here cannot un-finish the job; the server degrades its
// health instead (see handleHealthz).
func (s *Server) setJobState(j *job, st apiv1.JobState, jerr *apiv1.Error) {
	if !j.setState(st, jerr) {
		return
	}
	if s.cfg.Journal == nil || (!st.Terminal() && st != apiv1.StateInterrupted) {
		return
	}
	if err := s.cfg.Journal.Record(j.id, st, jerr); err != nil {
		s.mu.Lock()
		if s.journalErr == nil {
			s.journalErr = err
		}
		s.mu.Unlock()
	}
}

// handleSubmit admits a job: decode strictly, validate upfront, reject when
// the queue is full, otherwise journal (when durable), enqueue and answer
// 202 with the job's URL.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req apiv1.JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest,
			&apiv1.Error{Type: apiv1.ErrBadRequest, Message: "decoding job request: " + err.Error()})
		return
	}
	if req.V != 0 && req.V != apiv1.Version {
		writeError(w, http.StatusBadRequest, &apiv1.Error{Type: apiv1.ErrBadRequest,
			Message: fmt.Sprintf("unsupported wire-format version %d (this server speaks v%d)", req.V, apiv1.Version)})
		return
	}
	spec, arts, pts, budget, aerr := s.prepare(req)
	if aerr != nil {
		writeError(w, http.StatusBadRequest, aerr)
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable,
			&apiv1.Error{Type: apiv1.ErrInternal, Message: "server is shutting down"})
		return
	}
	s.nextID++
	id := fmt.Sprintf("j%06d", s.nextID)
	j := newJob(id, req, s.base)
	j.spec = spec
	j.arts = arts
	j.pts = pts
	j.budget = budget
	s.jobs[id] = j
	s.order = append(s.order, j)
	s.mu.Unlock()

	// Durability before acknowledgement: the submit record is fsynced
	// before the 202, so an acknowledged job can never be forgotten by a
	// crash. A journal that cannot record the job rejects the submission.
	if s.cfg.Journal != nil {
		if err := s.cfg.Journal.Submit(id, &req); err != nil {
			s.withdraw(j)
			// The record may have reached the file before the failure (a
			// complete write whose fsync then failed), so supersede it:
			// replay must not resurrect a job the client saw rejected.
			//vsvlint:ignore durability the journal just failed; a failed supersede leaves a rerun on replay, and the client already holds the real error
			_ = s.cfg.Journal.Record(id, apiv1.StateCancelled, &apiv1.Error{
				Type: apiv1.ErrInternal, Message: "journal write failed at admission"})
			writeError(w, http.StatusInternalServerError, &apiv1.Error{Type: apiv1.ErrInternal,
				Message: "journal write failed; job not accepted: " + err.Error()})
			return
		}
	}

	select {
	case s.queue <- j:
	default:
		// Queue full: withdraw the registration so the rejected job leaves
		// no trace, and tell the client to back off. The journaled submit
		// (if any) is superseded by a cancelled record so replay does not
		// resurrect a job the client was told to retry.
		s.withdraw(j)
		if s.cfg.Journal != nil {
			// Best-effort: an unrecordable cancellation means replay reruns
			// a rejected job — wasted work, not lost work.
			//vsvlint:ignore durability best-effort supersede on the back-off path; a miss reruns the job on replay, it cannot lose an acknowledged one
			_ = s.cfg.Journal.Record(id, apiv1.StateCancelled,
				&apiv1.Error{Type: apiv1.ErrQueueFull, Message: "rejected at admission: queue full"})
		}
		writeError(w, http.StatusTooManyRequests, &apiv1.Error{Type: apiv1.ErrQueueFull,
			Message: fmt.Sprintf("job queue is full (%d queued)", s.cfg.MaxQueue)})
		return
	}

	loc := "/v1/jobs/" + id
	w.Header().Set("Location", loc)
	writeJSON(w, http.StatusAccepted, apiv1.JobCreated{V: apiv1.Version, ID: id, Location: loc})
}

// withdraw removes a just-registered job that was never admitted (queue
// full, or the journal refused it).
func (s *Server) withdraw(j *job) {
	s.mu.Lock()
	delete(s.jobs, j.id)
	for i, o := range s.order {
		if o == j {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	j.cancel()
}

// find resolves {id} or writes the typed 404.
func (s *Server) find(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound,
			&apiv1.Error{Type: apiv1.ErrNotFound,
				Message: "no such job: " + id + " (unknown id, or evicted by the done-job retention bound)"})
	}
	return j
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	order := append([]*job(nil), s.order...)
	s.mu.Unlock()
	list := apiv1.JobList{V: apiv1.Version, Jobs: []apiv1.JobStatus{}}
	for _, j := range order {
		st := j.status()
		st.Points = nil // summaries only; fetch the job for detail
		list.Jobs = append(list.Jobs, st)
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.find(w, r)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleCancel cancels cooperatively: queued jobs are skipped when popped
// (freeing their queue slot immediately), running jobs abort in-flight
// simulations through the engine's stop channels. Idempotent.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.find(w, r)
	if j == nil {
		return
	}
	// State first, then cancel: the run loop's failure path must find the
	// terminal state already decided so it cannot re-label the abort.
	s.setJobState(j, apiv1.StateCancelled, nil)
	j.cancel()
	st := j.status()
	s.mu.Lock()
	s.evictDoneLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams the job's event log as chunked JSON lines: full
// replay from the first event, then live follow until the job is terminal
// or the client goes away.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.find(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := 0
	for {
		evs, terminal, wake := j.snapshotEvents(next)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		next += len(evs)
		if len(evs) > 0 && flusher != nil {
			flusher.Flush()
		}
		if terminal && len(evs) == 0 {
			return
		}
		if terminal {
			continue // drain the tail we just learned about, then re-check
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		case <-s.base.Done():
			return
		}
	}
}

// handleArtefacts serves a done job's outputs. The default is the JSON
// document; ?format=text concatenates the artefact texts in order — byte
// for byte what cmd/experiments would have printed — and ?format=csv (with
// ?name=) serves one artefact's table. ?name= restricts either format.
func (s *Server) handleArtefacts(w http.ResponseWriter, r *http.Request) {
	j := s.find(w, r)
	if j == nil {
		return
	}
	if st := j.State(); st != apiv1.StateDone {
		writeError(w, http.StatusConflict, &apiv1.Error{Type: apiv1.ErrBadRequest,
			Message: fmt.Sprintf("job %s has no artefacts: state is %q, want %q", j.id, st, apiv1.StateDone)})
		return
	}
	j.mu.Lock()
	outs := j.outputs
	points := j.points
	recovered := j.recovered
	j.mu.Unlock()
	if recovered && outs == nil && points == nil {
		// Journal replay restores a terminal job's identity and state, not
		// its rendered bytes. Resubmitting the same request regenerates
		// them — the shared memo cache makes that nearly free when the
		// engine is warm, and byte-identical always.
		writeError(w, http.StatusGone, &apiv1.Error{Type: apiv1.ErrNotFound,
			Message: fmt.Sprintf("job %s was recovered from the journal; rendered outputs do not survive a restart — resubmit the request to regenerate them", j.id)})
		return
	}

	name := r.URL.Query().Get("name")
	if name != "" {
		var match []experiments.Output
		for _, out := range outs {
			if out.Name == name {
				match = append(match, out)
			}
		}
		if len(match) == 0 {
			writeError(w, http.StatusNotFound, &apiv1.Error{Type: apiv1.ErrNotFound,
				Message: fmt.Sprintf("job %s has no artefact %q", j.id, name)})
			return
		}
		outs = match
	}

	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		resp := apiv1.ArtefactsResponse{V: apiv1.Version, ID: j.id,
			Artefacts: []apiv1.ArtefactOutput{}, Points: points}
		for _, out := range outs {
			ao := apiv1.ArtefactOutput{Name: out.Name, Text: out.Text}
			if out.CSV != nil {
				ao.CSV = out.CSV.CSV()
			}
			resp.Artefacts = append(resp.Artefacts, ao)
		}
		writeJSON(w, http.StatusOK, resp)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, out := range outs {
			if _, err := io.WriteString(w, out.Text); err != nil {
				return
			}
		}
	case "csv":
		if name == "" {
			writeError(w, http.StatusBadRequest, &apiv1.Error{Type: apiv1.ErrBadRequest,
				Message: "format=csv needs ?name= (one artefact per CSV)"})
			return
		}
		if outs[0].CSV == nil {
			writeError(w, http.StatusNotFound, &apiv1.Error{Type: apiv1.ErrNotFound,
				Message: fmt.Sprintf("artefact %q has no CSV form", name)})
			return
		}
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		io.WriteString(w, outs[0].CSV.CSV())
	default:
		writeError(w, http.StatusBadRequest, &apiv1.Error{Type: apiv1.ErrBadRequest,
			Message: fmt.Sprintf("unknown format %q (want json, text or csv)", format)})
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jerr := s.journalErr
	s.mu.Unlock()
	if jerr != nil {
		// Still serving, but the journal is no longer a faithful replay
		// source; operators should drain and investigate.
		writeJSON(w, http.StatusOK, apiv1.Health{V: apiv1.Version, Status: "degraded: " + jerr.Error()})
		return
	}
	writeJSON(w, http.StatusOK, apiv1.Health{V: apiv1.Version, Status: "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.engine.Stats()
	s.mu.Lock()
	order := append([]*job(nil), s.order...)
	s.mu.Unlock()
	var counts apiv1.JobCounts
	for _, j := range order {
		switch j.State() {
		case apiv1.StateQueued:
			counts.Queued++
		case apiv1.StateRunning:
			counts.Running++
		case apiv1.StateDone:
			counts.Done++
		case apiv1.StateFailed:
			counts.Failed++
		case apiv1.StateCancelled:
			counts.Cancelled++
		}
	}
	writeJSON(w, http.StatusOK, apiv1.StatsSnapshot{
		V: apiv1.Version,
		Engine: apiv1.EngineStats{
			Points:         st.Points,
			Ran:            st.Ran,
			CacheHits:      st.CacheHits,
			CheckpointHits: st.LedgerHits,
			Failed:         st.Failed,
			Retried:        st.Retried,
			SimTimeNS:      st.SimTime.Nanoseconds(),
			WorstRunNS:     st.WorstRun.Nanoseconds(),
			WorstKey:       st.WorstKey,
			CacheEntries:   s.engine.CacheLen(),
			CacheEvicted:   st.Evicted,
			ArenaReuses:    st.ArenaReuses,
			FreshBuilds:    st.FreshBuilds,
			ReuseRate:      st.ReuseRate(),
			RunsPerSec:     st.RunsPerSec(),
		},
		Jobs:          counts,
		QueueCap:      s.cfg.MaxQueue,
		MaxConcurrent: s.cfg.MaxConcurrent,
	})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil && !errors.Is(err, context.Canceled) {
		// The connection is gone; nothing useful left to do.
		_ = err
	}
}

func writeError(w http.ResponseWriter, status int, e *apiv1.Error) {
	writeJSON(w, status, struct {
		V     int          `json:"v"`
		Error *apiv1.Error `json:"error"`
	}{V: apiv1.Version, Error: e})
}

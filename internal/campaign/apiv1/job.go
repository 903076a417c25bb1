package apiv1

import "time"

// JobState is a job's lifecycle phase.
type JobState string

const (
	// StateQueued: accepted and waiting for a job slot.
	StateQueued JobState = "queued"
	// StateRunning: simulating on the shared engine.
	StateRunning JobState = "running"
	// StateDone: completed; artefacts and point results are available.
	StateDone JobState = "done"
	// StateFailed: aborted on a genuine failure (see JobStatus.Error).
	StateFailed JobState = "failed"
	// StateCancelled: cooperatively cancelled (DELETE, or server shutdown).
	StateCancelled JobState = "cancelled"
	// StateInterrupted: the serving process stopped (crash or graceful
	// shutdown) while the job was queued or running. Not terminal: a
	// restarted server replaying its journal re-dispatches interrupted
	// jobs, and the deterministic engine makes the rerun byte-identical.
	StateInterrupted JobState = "interrupted"
)

// Terminal reports whether the state is final. Interrupted is explicitly
// not terminal — it is the resumable middle of a crash-recovery story.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobRequest is the POST /v1/jobs payload: a campaign over the paper's
// declared artefacts, raw sweep points, or both. Fault plans ride inside
// each point's Config (sim.Config.Faults). Unknown fields are rejected —
// the version tag, not silent tolerance, is the evolution mechanism.
type JobRequest struct {
	// V is the wire-format version; 0 (omitted) is accepted as the current
	// version for convenience, anything other than 0 or 1 is rejected.
	V int `json:"v,omitempty"`

	// Artefacts names the declared evaluation artefacts to render (the
	// cmd/experiments -exp vocabulary: table1, table2, fig4..fig7, summary,
	// residency, robustness, sensitivity).
	Artefacts []string `json:"artefacts,omitempty"`
	// Benchmarks, Thresholds, Seeds and Latencies parameterize the
	// artefacts exactly like experiments.Spec (empty = paper defaults).
	Benchmarks []string `json:"benchmarks,omitempty"`
	Thresholds []int    `json:"thresholds,omitempty"`
	Seeds      int      `json:"seeds,omitempty"`
	Latencies  []int    `json:"latencies,omitempty"`

	// WarmupInstructions and MeasureInstructions size each run's windows
	// (0 = the server's defaults).
	WarmupInstructions  uint64 `json:"warmup_instructions,omitempty"`
	MeasureInstructions uint64 `json:"measure_instructions,omitempty"`
	// ForceSlowTick disables the event-driven fast-forward (debug;
	// results are bit-identical either way).
	ForceSlowTick bool `json:"force_slow_tick,omitempty"`
	// ContinueOnError renders failed artefacts/points as annotations
	// instead of failing the whole job.
	ContinueOnError bool `json:"continue_on_error,omitempty"`

	// Points are raw sweep points simulated in addition to (or instead of)
	// the named artefacts; their outcomes come back per point.
	Points []Point `json:"points,omitempty"`

	// RunBudget caps how many simulation points this job may submit to the
	// engine. 0 inherits the server's per-job cap; a positive value may
	// tighten the cap but never exceed it.
	RunBudget int `json:"run_budget,omitempty"`
}

// JobCreated is the 202 response to POST /v1/jobs.
type JobCreated struct {
	V  int    `json:"v"`
	ID string `json:"id"`
	// Location is the job's status URL (also sent as the Location header).
	Location string `json:"location"`
}

// JobProgress is a job's point-accounting snapshot, derived from the
// job-scoped engine counters (concurrent jobs on one engine never mix).
type JobProgress struct {
	// PointsSubmitted counts every point the job has planned so far;
	// PointsDone counts those resolved (ran, cache hit or checkpoint hit).
	PointsSubmitted int `json:"points_submitted"`
	PointsDone      int `json:"points_done"`
	// Ran / CacheHits / CheckpointHits / Failed / Retried break down the
	// resolution (see sweep.Stats).
	Ran            int `json:"ran"`
	CacheHits      int `json:"cache_hits"`
	CheckpointHits int `json:"checkpoint_hits"`
	Failed         int `json:"failed"`
	Retried        int `json:"retried"`
}

// JobStatus is the GET /v1/jobs/{id} response.
type JobStatus struct {
	V     int      `json:"v"`
	ID    string   `json:"id"`
	State JobState `json:"state"`

	// CreatedAt / StartedAt / FinishedAt are wall-clock timestamps
	// (RFC 3339; zero-valued ones are omitted).
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`

	// Artefacts names the artefacts the job renders; once done they are
	// retrievable from /v1/jobs/{id}/artefacts.
	Artefacts []string `json:"artefacts,omitempty"`
	// Progress is the live per-point accounting.
	Progress JobProgress `json:"progress"`
	// Error is set when State is failed (and sometimes cancelled, to say
	// why).
	Error *Error `json:"error,omitempty"`
	// Recovered marks a job re-materialized from the server's journal
	// after a restart. Terminal recovered jobs keep their state and error
	// but not their rendered outputs (resubmit to regenerate); interrupted
	// recovered jobs are re-dispatched automatically.
	Recovered bool `json:"recovered,omitempty"`
	// Points carries per-point outcomes for raw-point jobs once the job is
	// done (results elided from status; fetch them from /artefacts).
	Points []PointStatus `json:"points,omitempty"`
}

// JobList is the GET /v1/jobs response: every job the server knows, in
// submission order, without per-point detail.
type JobList struct {
	V    int         `json:"v"`
	Jobs []JobStatus `json:"jobs"`
}

// PointStatus is one raw point's outcome summary inside JobStatus.
type PointStatus struct {
	Key   string   `json:"key"`
	State JobState `json:"state"`
	Error *Error   `json:"error,omitempty"`
}

// PointResult is one raw point's full outcome inside the artefacts
// response.
type PointResult struct {
	Key       string   `json:"key"`
	Benchmark string   `json:"benchmark"`
	Seed      uint64   `json:"seed,omitempty"`
	Res       *Results `json:"res,omitempty"`
	Error     *Error   `json:"error,omitempty"`
}

// Event is one line of the GET /v1/jobs/{id}/events chunked JSONL stream.
// The stream replays a job's full event history from the beginning, then
// follows live until the job reaches a terminal state.
type Event struct {
	V   int `json:"v"`
	Seq int `json:"seq"`
	// Type is "state" (lifecycle edge; State set), "progress" (Progress
	// set), "error" (Error set, terminal) or "resumed" (State set: a
	// journal replay re-dispatched this job after a restart).
	Type     string       `json:"type"`
	State    JobState     `json:"state,omitempty"`
	Progress *JobProgress `json:"progress,omitempty"`
	Error    *Error       `json:"error,omitempty"`
}

// ArtefactOutput is one rendered artefact in the artefacts response. Text
// is the exact byte stream the artefact contributes to cmd/experiments'
// stdout, so concatenating a job's artefact texts in order reproduces the
// command-line output byte for byte.
type ArtefactOutput struct {
	Name string `json:"name"`
	Text string `json:"text"`
	CSV  string `json:"csv,omitempty"`
}

// ArtefactsResponse is the GET /v1/jobs/{id}/artefacts response.
type ArtefactsResponse struct {
	V         int              `json:"v"`
	ID        string           `json:"id"`
	Artefacts []ArtefactOutput `json:"artefacts"`
	// Points carries raw-point outcomes, when the job submitted any.
	Points []PointResult `json:"points,omitempty"`
}

// EngineStats is the wire form of the shared engine's lifetime counters
// (sweep.Stats; durations in nanoseconds).
type EngineStats struct {
	Points         int    `json:"points"`
	Ran            int    `json:"ran"`
	CacheHits      int    `json:"cache_hits"`
	CheckpointHits int    `json:"checkpoint_hits"`
	Failed         int    `json:"failed"`
	Retried        int    `json:"retried"`
	SimTimeNS      int64  `json:"sim_time_ns"`
	WorstRunNS     int64  `json:"worst_run_ns"`
	WorstKey       string `json:"worst_key,omitempty"`
	// LedgerHits counts points served from the work-stealing ledger and
	// Steals counts expired foreign claims taken over (both zero unless a
	// ledger is attached).
	LedgerHits int `json:"ledger_hits,omitempty"`
	Steals     int `json:"steals,omitempty"`
	// CacheEntries is the memo cache's current population; CacheEvicted
	// counts entries dropped by the engine's cache bound.
	CacheEntries int `json:"cache_entries"`
	CacheEvicted int `json:"cache_evicted"`
	// ArenaReuses and FreshBuilds split executed run attempts by whether
	// they recycled a worker's machine arena in place or constructed one;
	// ReuseRate is ArenaReuses over their sum.
	ArenaReuses int     `json:"arena_reuses"`
	FreshBuilds int     `json:"fresh_builds"`
	ReuseRate   float64 `json:"reuse_rate"`
	// RunsPerSec is executed simulations per second of simulation wall
	// time (Ran over SimTimeNS) — the engine's compute throughput.
	RunsPerSec float64 `json:"runs_per_sec"`
}

// JobCounts breaks the server's jobs down by state.
type JobCounts struct {
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
}

// StatsSnapshot is the GET /v1/stats response: the engine/cache counters
// shared by every job, plus the server's own admission counters.
type StatsSnapshot struct {
	V      int         `json:"v"`
	Engine EngineStats `json:"engine"`
	Jobs   JobCounts   `json:"jobs"`
	// QueueCap and MaxConcurrent echo the admission-control limits.
	QueueCap      int `json:"queue_cap"`
	MaxConcurrent int `json:"max_concurrent"`
}

// Health is the GET /v1/healthz response.
type Health struct {
	V      int    `json:"v"`
	Status string `json:"status"`
}

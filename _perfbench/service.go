package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/campaign/apiv1"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Raw points are small, so simulation stays a minority of a job and HTTP,
// JSON, the journal fsync and memo traffic dominate.
const (
	rawWarmup  = 1_000
	rawMeasure = 4_000
)

// rawBenches are the benchmarks of each job's two raw points.
var rawBenches = []string{"mcf", "swim"}

// Bounds that keep the service's memory flat however many jobs a run
// completes, as vsvserve's -cache-entries and -max-done-jobs do.
const (
	serviceCacheEntries = 1024
	serviceDoneJobs     = 64
)

// service is the campaign service in process: a campaign.Server with its
// journal in a scratch directory and default admission, behind httptest,
// driven by one closed-loop client. A job is Figure 4 over the seven MR>4
// benchmarks at the golden windows — memo hits after the first job — plus
// two raw points with fresh seeds, which always miss. One client, not one
// per CPU: a client per CPU keeps every CPU busy, and the job latency then
// tracks the host's speed so closely that runs spread twice as wide.
type service struct {
	base
	e       *env
	journal *campaign.Journal
	srv     *campaign.Server
	ts      *httptest.Server
	client  *http.Client
	want    apiv1.ArtefactOutput // Figure 4 rendered by a direct run
	rawCfg  sim.Config

	checks []rawCheck // served raw points, checked after timing
	// Traced jobs' queue wait and execution time, from their status.
	queueWait, exec     []float64
	submitted, rejected int
}

// rawCheck is a served raw point awaiting comparison with a direct run.
type rawCheck struct {
	op    int64
	bench string
	seed  uint64
	sum   [32]byte // SHA-256 of the served apiv1.Results JSON
}

func (w *service) setup() error {
	j, err := campaign.OpenJournal(filepath.Join(w.e.tmp, "journal.jsonl"))
	if err != nil {
		return err
	}
	w.journal = j
	o := experiments.Options{WarmupInstructions: goldenWarmup, MeasureInstructions: goldenMeasure, Parallelism: w.e.nproc}
	w.srv = campaign.New(campaign.Config{
		Engine:      sweep.New(sweep.Workers(w.e.nproc), sweep.CacheBound(serviceCacheEntries)),
		Options:     o,
		MaxDoneJobs: serviceDoneJobs,
		Journal:     j,
	})
	w.ts = httptest.NewServer(w.srv)
	w.client = &http.Client{Transport: &http.Transport{}}
	w.rawCfg = experiments.BenchConfig(experiments.Options{WarmupInstructions: rawWarmup, MeasureInstructions: rawMeasure}).WithVSV(core.PolicyFSM())

	arts, err := experiments.Artefacts("fig4")
	if err != nil {
		return err
	}
	o.Engine = sweep.New(sweep.Workers(w.e.nproc))
	outs, err := experiments.RunArtefacts(nil, o, experiments.Spec{Benchmarks: workload.HighMRNames()}, arts, false)
	if err != nil {
		return err
	}
	w.want = apiv1.ArtefactOutput{Name: outs[0].Name, Text: outs[0].Text, CSV: outs[0].CSV.CSV()}

	// The first job simulates Figure 4's points; later jobs find them
	// memoized. Op -1 keeps its seeds apart from the timed ops'.
	_, err = w.op(-1, scope{op: -1})
	return err
}

func (w *service) shape() shape {
	return shape{kinds: 1, inst: float64(len(rawBenches)) * (rawWarmup + rawMeasure), minOps: 150}
}

// request is op i's job; each raw point's seed is unique to (i, point).
func (w *service) request(i int) apiv1.JobRequest {
	pts := make([]apiv1.Point, len(rawBenches))
	for k, b := range rawBenches {
		pts[k] = apiv1.Point{
			Key:       fmt.Sprintf("raw%d", k),
			Benchmark: b,
			Seed:      mix(w.e.seed, uint64(i)<<4|uint64(k)),
			Config:    w.rawCfg,
		}
	}
	return apiv1.JobRequest{
		V:                   apiv1.Version,
		Artefacts:           []string{"fig4"},
		Benchmarks:          workload.HighMRNames(),
		WarmupInstructions:  goldenWarmup,
		MeasureInstructions: goldenMeasure,
		Points:              pts,
	}
}

// op submits one job, follows its event stream to the terminal state and
// fetches its artefacts.
func (w *service) op(i int, sc scope) (time.Duration, error) {
	req := w.request(i)
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	id, err := w.submit(body, sc)
	if err != nil {
		return time.Since(t0), err
	}
	if err := w.stream(id, sc); err != nil {
		return time.Since(t0), err
	}
	var got apiv1.ArtefactsResponse
	err = w.get("/v1/jobs/"+id+"/artefacts", &got, sc.span("campaign.fetch"))
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if err := w.check(sc.op, req, got); err != nil {
		return d, err
	}
	if sc.traced() {
		var st apiv1.JobStatus
		if err := w.get("/v1/jobs/"+id, &st, spanEnd{}); err != nil {
			return d, err
		}
		if st.StartedAt != nil && st.FinishedAt != nil {
			w.queueWait = append(w.queueWait, st.StartedAt.Sub(st.CreatedAt).Seconds())
			w.exec = append(w.exec, st.FinishedAt.Sub(*st.StartedAt).Seconds())
		}
	}
	return d, nil
}

// submit posts the job; the 202 arrives after the journal's fsync.
func (w *service) submit(body []byte, sc scope) (string, error) {
	defer sc.span("campaign.submit").end()
	w.submitted++
	resp, err := w.client.Post(w.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		if resp.StatusCode == http.StatusTooManyRequests {
			w.rejected++
		}
		b, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	var created apiv1.JobCreated
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	return created.ID, nil
}

// stream follows the job's event stream, which the server ends once the
// job is terminal, so the op's latency is not rounded to a poll interval.
func (w *service) stream(id string, sc scope) error {
	defer sc.span("campaign.stream").end()
	resp, err := w.client.Get(w.ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	var last apiv1.Event
	dec := json.NewDecoder(resp.Body)
	for {
		var ev apiv1.Event
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("events: %w", err)
		}
		last = ev
	}
	if last.State != apiv1.StateDone {
		return fmt.Errorf("job %s ended %q: %+v", id, last.State, last.Error)
	}
	return nil
}

func (w *service) get(path string, v any, sp spanEnd) error {
	defer sp.end()
	resp, err := w.client.Get(w.ts.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// check compares the job's Figure 4 with the direct run and queues its raw
// points for comparison with direct simulator runs after timing.
func (w *service) check(op int64, req apiv1.JobRequest, got apiv1.ArtefactsResponse) error {
	if len(got.Artefacts) != 1 || got.Artefacts[0] != w.want {
		return fmt.Errorf("job %s: fig4 differs from the direct run", got.ID)
	}
	if len(got.Points) != len(req.Points) {
		return fmt.Errorf("job %s: %d raw points served, want %d", got.ID, len(got.Points), len(req.Points))
	}
	for k, pr := range got.Points {
		if pr.Error != nil || pr.Res == nil || pr.Key != req.Points[k].Key {
			return fmt.Errorf("job %s: raw point %q failed: %+v", got.ID, pr.Key, pr.Error)
		}
		b, err := json.Marshal(pr.Res)
		if err != nil {
			return err
		}
		w.checks = append(w.checks, rawCheck{op: op, bench: req.Points[k].Benchmark, seed: req.Points[k].Seed, sum: sha256.Sum256(b)})
	}
	return nil
}

// verify reruns every served raw point directly on the simulator, one
// recycled machine per CPU, and counts the ops whose points differ.
func (w *service) verify() (int, error) {
	checks := w.checks
	w.checks = nil
	bad := make([]bool, len(checks))
	errs := make([]error, w.e.nproc)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w.e.nproc; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var m *sim.Machine
			for {
				k := int(next.Add(1) - 1)
				if k >= len(checks) {
					return
				}
				c := checks[k]
				opts := []sim.Option{sim.WithConfig(w.rawCfg), sim.WithSeed(c.seed)}
				var err error
				if m == nil {
					m, err = sim.NewBench(c.bench, opts...)
				} else {
					err = m.ResetBench(c.bench, opts...)
				}
				if err != nil {
					errs[g] = err
					return
				}
				b, err := json.Marshal(apiv1.FromResults(m.Run(c.bench)))
				bad[k] = err != nil || sha256.Sum256(b) != c.sum
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	failed := map[int64]bool{}
	for k, b := range bad {
		if b {
			failed[checks[k].op] = true
		}
	}
	return len(failed), nil
}

func (w *service) layers(tr *tracer, out outcome, v map[string]float64) error {
	var secs []float64
	for _, s := range out.samples {
		secs = append(secs, s.secs)
	}
	p90, ok := tailQuantile(secs, 0.9)
	if !ok {
		return fmt.Errorf("%d jobs leave fewer than %d beyond p90", len(secs), minBeyond)
	}
	v["campaign.op_p90_s"] = p90
	v["campaign.submit_s"] = median(tr.seconds("campaign.submit"))
	v["campaign.stream_s"] = median(tr.seconds("campaign.stream"))
	v["campaign.fetch_s"] = median(tr.seconds("campaign.fetch"))
	v["campaign.queue_wait_s"] = median(w.queueWait)
	v["campaign.exec_s"] = median(w.exec)
	v["campaign.rejected_frac"] = float64(w.rejected) / float64(w.submitted)

	// The journal on its own: append + fsync of one submit record.
	j, err := campaign.OpenJournal(filepath.Join(w.e.tmp, "probe-journal.jsonl"))
	if err != nil {
		return err
	}
	defer j.Close()
	req := w.request(-1)
	var app []float64
	for i := 0; i < 200; i++ {
		s, err := probe(tr, "campaign.Journal.Submit", func(scope) error { return j.Submit(fmt.Sprintf("j%06d", i+1), &req) })
		if err != nil {
			return err
		}
		app = append(app, s)
	}
	v["campaign.journal_append_s"] = median(app)
	return nil
}

func (w *service) close() {
	if w.ts != nil {
		w.ts.Close()
		w.client.CloseIdleConnections()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	if w.journal != nil {
		_ = w.journal.Close()
	}
}

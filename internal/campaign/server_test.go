package campaign_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/campaign/apiv1"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// tinyCfg is a fast raw-point machine configuration.
func tinyCfg() sim.Config {
	cfg := sim.BenchConfig()
	cfg.WarmupInstructions = 2_000
	cfg.MeasureInstructions = 8_000
	return cfg
}

// start brings up a service on a real listener (the events stream needs
// genuine chunked HTTP) and tears it down with the test.
func start(t *testing.T, cfg campaign.Config) (*campaign.Server, *httptest.Server) {
	t.Helper()
	svc := campaign.New(cfg)
	ts := httptest.NewServer(svc)
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return svc, ts
}

func postJob(t *testing.T, ts *httptest.Server, req apiv1.JobRequest) apiv1.JobCreated {
	t.Helper()
	created, status := tryPostJob(t, ts, req)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d", status)
	}
	return created
}

func tryPostJob(t *testing.T, ts *httptest.Server, req apiv1.JobRequest) (apiv1.JobCreated, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		io.Copy(io.Discard, resp.Body)
		return apiv1.JobCreated{}, resp.StatusCode
	}
	var created apiv1.JobCreated
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	if created.ID == "" || created.Location == "" {
		t.Fatalf("incomplete creation response: %+v", created)
	}
	return created, resp.StatusCode
}

func getJSON(t *testing.T, url string, v interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

func jobStatus(t *testing.T, ts *httptest.Server, id string) apiv1.JobStatus {
	t.Helper()
	var st apiv1.JobStatus
	if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &st); code != http.StatusOK {
		t.Fatalf("status %s: HTTP %d", id, code)
	}
	return st
}

// followEvents consumes the job's whole event stream — replay plus live
// follow — returning every event once the job reaches a terminal state.
func followEvents(t *testing.T, ts *httptest.Server, id string) []apiv1.Event {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events %s: HTTP %d", id, resp.StatusCode)
	}
	var evs []apiv1.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var ev apiv1.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return evs
}

// waitState polls until the job reaches the state (the events stream is the
// push path; polling keeps these assertions independent of it).
func waitState(t *testing.T, ts *httptest.Server, id string, want apiv1.JobState) apiv1.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := jobStatus(t, ts, id)
		if st.State == want {
			return st
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s is %q (err %+v), want %q", id, st.State, st.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getBody(t *testing.T, url string) (string, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp.StatusCode
}

// tinyReq is a fast two-benchmark campaign over two artefacts.
func tinyReq() apiv1.JobRequest {
	return apiv1.JobRequest{
		V:                   apiv1.Version,
		Artefacts:           []string{"fig4", "summary"},
		Benchmarks:          []string{"mcf", "eon"},
		WarmupInstructions:  2_000,
		MeasureInstructions: 8_000,
	}
}

// TestE2EByteIdentity is the tentpole guarantee: a campaign submitted over
// the API, streamed, and fetched back as text is byte-identical to the same
// campaign run directly through the experiments engine (what
// cmd/experiments prints).
func TestE2EByteIdentity(t *testing.T) {
	req := tinyReq()

	// Direct run, the reference bytes.
	arts, err := experiments.Artefacts(req.Artefacts...)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	o := experiments.Options{
		WarmupInstructions:  req.WarmupInstructions,
		MeasureInstructions: req.MeasureInstructions,
		Engine:              sweep.New(sweep.Workers(4)),
	}
	if _, err := experiments.RunArtefacts(&want, o, experiments.Spec{Benchmarks: req.Benchmarks}, arts, false); err != nil {
		t.Fatal(err)
	}

	// The same campaign through the service.
	_, ts := start(t, campaign.Config{Engine: sweep.New(sweep.Workers(4))})
	created := postJob(t, ts, req)
	evs := followEvents(t, ts, created.ID) // blocks until terminal

	st := jobStatus(t, ts, created.ID)
	if st.State != apiv1.StateDone {
		t.Fatalf("job finished %q (err %+v), want done", st.State, st.Error)
	}
	got, code := getBody(t, ts.URL+created.Location+"/artefacts?format=text")
	if code != http.StatusOK {
		t.Fatalf("artefacts: HTTP %d", code)
	}
	if got != want.String() {
		t.Fatalf("API artefact bytes differ from the direct run:\n got %d bytes\nwant %d bytes", len(got), want.Len())
	}

	// The stream carried the full lifecycle and live progress.
	var states []apiv1.JobState
	progress := 0
	for _, ev := range evs {
		switch ev.Type {
		case "state":
			states = append(states, ev.State)
		case "progress":
			progress++
			if ev.Progress == nil || ev.Progress.PointsDone > ev.Progress.PointsSubmitted {
				t.Fatalf("malformed progress event: %+v", ev)
			}
		}
		if ev.V != apiv1.Version {
			t.Fatalf("unversioned event: %+v", ev)
		}
	}
	wantStates := []apiv1.JobState{apiv1.StateQueued, apiv1.StateRunning, apiv1.StateDone}
	if fmt.Sprint(states) != fmt.Sprint(wantStates) {
		t.Fatalf("lifecycle on the stream = %v, want %v", states, wantStates)
	}
	if progress == 0 {
		t.Fatal("stream carried no progress events")
	}

	// The JSON form agrees with the text form.
	var ar apiv1.ArtefactsResponse
	if code := getJSON(t, ts.URL+created.Location+"/artefacts", &ar); code != http.StatusOK {
		t.Fatalf("artefacts JSON: HTTP %d", code)
	}
	var cat strings.Builder
	for _, a := range ar.Artefacts {
		cat.WriteString(a.Text)
	}
	if cat.String() != want.String() {
		t.Fatal("JSON artefact texts do not concatenate to the direct run's bytes")
	}
}

// TestCacheSharedAcrossJobs pins the warm-process guarantee: an identical
// second job is served almost entirely from the shared memo cache.
func TestCacheSharedAcrossJobs(t *testing.T) {
	_, ts := start(t, campaign.Config{Engine: sweep.New(sweep.Workers(4))})
	req := tinyReq()

	first := postJob(t, ts, req)
	followEvents(t, ts, first.ID)
	st1 := jobStatus(t, ts, first.ID)
	if st1.State != apiv1.StateDone || st1.Progress.Ran == 0 {
		t.Fatalf("first job: %q %+v", st1.State, st1.Progress)
	}

	second := postJob(t, ts, req)
	followEvents(t, ts, second.ID)
	st2 := jobStatus(t, ts, second.ID)
	if st2.State != apiv1.StateDone {
		t.Fatalf("second job finished %q (err %+v)", st2.State, st2.Error)
	}
	p := st2.Progress
	if p.Ran != 0 {
		t.Fatalf("second identical job re-simulated %d points", p.Ran)
	}
	if p.PointsSubmitted == 0 || p.CacheHits*10 < p.PointsSubmitted*9 {
		t.Fatalf("second job not ≥90%% memo hits: %+v", p)
	}

	// And the bytes match, of course.
	b1, _ := getBody(t, ts.URL+first.Location+"/artefacts?format=text")
	b2, _ := getBody(t, ts.URL+second.Location+"/artefacts?format=text")
	if b1 == "" || b1 != b2 {
		t.Fatal("repeated job's artefact bytes differ")
	}

	// /v1/stats sees the shared engine: every point accounted, cache warm.
	var stats apiv1.StatsSnapshot
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: HTTP %d", code)
	}
	if stats.Engine.CacheEntries == 0 || stats.Jobs.Done != 2 {
		t.Fatalf("stats missed the jobs: %+v", stats)
	}
	// The throughput surface: run attempts split into fresh builds and
	// arena reuses, and a positive runs/sec over the executed work.
	if got := stats.Engine.ArenaReuses + stats.Engine.FreshBuilds; got < stats.Engine.Ran {
		t.Fatalf("arena accounting misses runs: reuses=%d builds=%d ran=%d",
			stats.Engine.ArenaReuses, stats.Engine.FreshBuilds, stats.Engine.Ran)
	}
	if stats.Engine.RunsPerSec <= 0 {
		t.Fatalf("runs_per_sec not populated: %+v", stats.Engine)
	}
	if stats.Engine.ReuseRate < 0 || stats.Engine.ReuseRate > 1 {
		t.Fatalf("reuse_rate out of range: %v", stats.Engine.ReuseRate)
	}
}

// TestCheckpointWarmStart pins the -checkpoint accounting: a restarted
// service whose engine reopens the ledger serves a repeated job entirely
// from it, and counts those points as done checkpoint hits both in the
// job's progress and in the engine stats.
func TestCheckpointWarmStart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	life := func() (apiv1.JobProgress, apiv1.EngineStats) {
		led, err := sweep.OpenLedger(path, sweep.LedgerWorker("vsvserve"))
		if err != nil {
			t.Fatal(err)
		}
		defer led.Close()
		_, ts := start(t, campaign.Config{Engine: sweep.New(sweep.Workers(2), sweep.WithLedger(led))})
		created := postJob(t, ts, tinyReq())
		st := waitState(t, ts, created.ID, apiv1.StateDone)
		var stats apiv1.StatsSnapshot
		if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
			t.Fatalf("stats: HTTP %d", code)
		}
		return st.Progress, stats.Engine
	}
	first, _ := life()
	p, eng := life()
	if p.Ran != 0 || p.CheckpointHits != first.Ran || p.PointsDone != p.PointsSubmitted ||
		eng.CheckpointHits != p.CheckpointHits {
		t.Fatalf("warm restart: progress %+v engine %+v, want every point a done checkpoint hit", p, eng)
	}
}

// slowReq is a campaign big enough to still be running when the test acts
// on it (it is always cancelled, so its size costs no test time).
func slowReq() apiv1.JobRequest {
	return apiv1.JobRequest{
		Artefacts:           []string{"fig4", "fig5", "fig6", "fig7"},
		WarmupInstructions:  1_000_000,
		MeasureInstructions: 50_000_000,
	}
}

func cancelJob(t *testing.T, ts *httptest.Server, id string) apiv1.JobStatus {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel %s: HTTP %d", id, resp.StatusCode)
	}
	var st apiv1.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCancellationFreesSlot pins cooperative cancellation: DELETE aborts a
// running job promptly and frees its slot for the next job.
func TestCancellationFreesSlot(t *testing.T) {
	_, ts := start(t, campaign.Config{
		Engine:        sweep.New(sweep.Workers(2)),
		MaxConcurrent: 1,
	})

	big := postJob(t, ts, slowReq())
	waitState(t, ts, big.ID, apiv1.StateRunning)

	small := postJob(t, ts, tinyReq()) // waits behind the only slot

	if st := cancelJob(t, ts, big.ID); st.State != apiv1.StateCancelled {
		t.Fatalf("cancelled job reports %q", st.State)
	}
	// The events stream of a cancelled job terminates.
	evs := followEvents(t, ts, big.ID)
	if last := evs[len(evs)-1]; last.State != apiv1.StateCancelled {
		t.Fatalf("stream ended on %+v, want cancelled", last)
	}

	// The slot freed: the queued job now runs to completion.
	followEvents(t, ts, small.ID)
	if st := jobStatus(t, ts, small.ID); st.State != apiv1.StateDone {
		t.Fatalf("queued job finished %q (err %+v) after the cancel", st.State, st.Error)
	}

	// Cancelling a queued job works too (and is idempotent on a done one).
	big2 := postJob(t, ts, slowReq())
	queued := postJob(t, ts, slowReq())
	if st := cancelJob(t, ts, queued.ID); st.State != apiv1.StateCancelled {
		t.Fatalf("queued job cancel: %q", st.State)
	}
	cancelJob(t, ts, big2.ID)
	if st := cancelJob(t, ts, small.ID); st.State != apiv1.StateDone {
		t.Fatalf("cancel of a done job rewrote its state to %q", st.State)
	}
}

// TestAdmissionControl pins the bounded queue: submissions past
// MaxQueue+MaxConcurrent are rejected with a typed 429, not buffered.
func TestAdmissionControl(t *testing.T) {
	_, ts := start(t, campaign.Config{
		Engine:        sweep.New(sweep.Workers(1)),
		MaxQueue:      1,
		MaxConcurrent: 1,
	})

	running := postJob(t, ts, slowReq())
	waitState(t, ts, running.ID, apiv1.StateRunning)
	queued := postJob(t, ts, slowReq())

	if _, code := tryPostJob(t, ts, slowReq()); code != http.StatusTooManyRequests {
		t.Fatalf("over-queue submission got HTTP %d, want 429", code)
	}
	var rejected struct {
		Error *apiv1.Error `json:"error"`
	}
	body, err := json.Marshal(slowReq())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&rejected)
	resp.Body.Close()
	if rejected.Error == nil || rejected.Error.Type != apiv1.ErrQueueFull {
		t.Fatalf("rejection is not typed queue_full: %+v", rejected.Error)
	}

	cancelJob(t, ts, queued.ID)
	cancelJob(t, ts, running.ID)
}

// TestRunBudget pins the per-job budget both at the door (raw points over
// budget are a 400) and at the engine (an artefact fan-out over budget
// fails the job with a typed budget error, touching nothing).
func TestRunBudget(t *testing.T) {
	_, ts := start(t, campaign.Config{
		Engine:          sweep.New(sweep.Workers(2)),
		MaxPointsPerJob: 1,
	})

	// At the door: two raw points against a budget of one.
	req := apiv1.JobRequest{Points: []apiv1.Point{
		{Benchmark: "mcf", Config: tinyCfg()},
		{Benchmark: "eon", Config: tinyCfg()},
	}}
	if _, code := tryPostJob(t, ts, req); code != http.StatusBadRequest {
		t.Fatalf("over-budget points got HTTP %d, want 400", code)
	}

	// At the engine: fig4 over two benchmarks needs more than one point.
	created := postJob(t, ts, tinyReq())
	followEvents(t, ts, created.ID)
	st := jobStatus(t, ts, created.ID)
	if st.State != apiv1.StateFailed || st.Error == nil || st.Error.Type != apiv1.ErrBudget {
		t.Fatalf("over-budget job: state %q error %+v", st.State, st.Error)
	}
	if st.Progress.Ran != 0 {
		t.Fatalf("over-budget job still simulated %d points", st.Progress.Ran)
	}
}

// TestRawPoints pins the raw-point path: per-point results come back typed,
// keyed and bit-exact decodable.
func TestRawPoints(t *testing.T) {
	_, ts := start(t, campaign.Config{Engine: sweep.New(sweep.Workers(2))})
	req := apiv1.JobRequest{Points: []apiv1.Point{
		{Key: "base", Benchmark: "mcf", Config: tinyCfg()},
		{Benchmark: "eon", Config: tinyCfg()}, // unnamed: server keys it p1
	}}
	created := postJob(t, ts, req)
	followEvents(t, ts, created.ID)
	if st := jobStatus(t, ts, created.ID); st.State != apiv1.StateDone {
		t.Fatalf("raw-point job finished %q (err %+v)", st.State, st.Error)
	}

	var ar apiv1.ArtefactsResponse
	getJSON(t, ts.URL+created.Location+"/artefacts", &ar)
	if len(ar.Points) != 2 {
		t.Fatalf("got %d point results, want 2", len(ar.Points))
	}
	if ar.Points[0].Key != "base" || ar.Points[1].Key != "p1" {
		t.Fatalf("point keys wrong: %q, %q", ar.Points[0].Key, ar.Points[1].Key)
	}
	for _, p := range ar.Points {
		if p.Error != nil || p.Res == nil || p.Res.Instructions == 0 {
			t.Fatalf("point %q has no usable result: %+v", p.Key, p)
		}
	}
}

// TestRawPointPrewarmPastAddressSpace pins that a raw point whose prewarm
// range walks past 2^64-1 ends as a failed point naming the range, instead
// of spinning its arena slot in the prewarm walk; the engine's one slot
// then runs the next point.
func TestRawPointPrewarmPastAddressSpace(t *testing.T) {
	_, ts := start(t, campaign.Config{Engine: sweep.New(sweep.Workers(1), sweep.ContinueOnError())})
	bad := tinyCfg()
	bad.Prewarm = append(bad.Prewarm, sim.PrewarmRange{Base: ^uint64(0) - 47, Bytes: 40})
	req := apiv1.JobRequest{ContinueOnError: true, Points: []apiv1.Point{
		{Key: "wraps", Benchmark: "mcf", Config: bad},
		{Key: "good", Benchmark: "mcf", Config: tinyCfg()},
	}}
	created := postJob(t, ts, req)
	done := make(chan struct{})
	go func() {
		defer close(done)
		followEvents(t, ts, created.ID)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("raw point with a wrapping prewarm range still running after 60 s")
	}
	var ar apiv1.ArtefactsResponse
	getJSON(t, ts.URL+created.Location+"/artefacts", &ar)
	if len(ar.Points) != 2 {
		t.Fatalf("got %d point results, want 2", len(ar.Points))
	}
	if e := ar.Points[0].Error; e == nil || !strings.Contains(e.Message, "prewarm range 2") {
		t.Fatalf("wrapping point: error %+v, want one naming prewarm range 2", e)
	}
	if p := ar.Points[1]; p.Error != nil || p.Res == nil {
		t.Fatalf("good point beside it has no result: %+v", p)
	}
}

// TestBadRequests pins the typed error surface of the front door.
func TestBadRequests(t *testing.T) {
	_, ts := start(t, campaign.Config{Engine: sweep.New(sweep.Workers(1))})

	post := func(body string) (int, *apiv1.Error) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e struct {
			Error *apiv1.Error `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Error
	}

	cases := []struct {
		name, body string
	}{
		{"unknown field", `{"artefacts":["fig4"],"bogus":1}`},
		{"future version", `{"v":2,"artefacts":["fig4"]}`},
		{"empty job", `{}`},
		{"unknown artefact", `{"artefacts":["fig99"]}`},
		{"unknown benchmark", `{"artefacts":["fig4"],"benchmarks":["nonesuch"]}`},
		{"unknown point benchmark", `{"points":[{"benchmark":"nonesuch","config":{}}]}`},
		{"not json", `try a campaign`},
	}
	for _, tc := range cases {
		code, e := post(tc.body)
		if code != http.StatusBadRequest || e == nil || e.Type != apiv1.ErrBadRequest {
			t.Fatalf("%s: HTTP %d, error %+v (want 400 bad_request)", tc.name, code, e)
		}
	}

	// Unknown job IDs are typed 404s on every job endpoint.
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/events", "/v1/jobs/nope/artefacts"} {
		var e struct {
			Error *apiv1.Error `json:"error"`
		}
		if code := getJSON(t, ts.URL+path, &e); code != http.StatusNotFound || e.Error.Type != apiv1.ErrNotFound {
			t.Fatalf("%s: HTTP %d, error %+v", path, code, e.Error)
		}
	}

	// Artefacts of an unfinished job are a 409, not an empty 200.
	created := postJob(t, ts, apiv1.JobRequest{
		Artefacts:           []string{"fig4"},
		WarmupInstructions:  1_000_000,
		MeasureInstructions: 50_000_000,
	})
	if _, code := getBody(t, ts.URL+created.Location+"/artefacts"); code != http.StatusConflict {
		t.Fatalf("artefacts of a running job: HTTP %d, want 409", code)
	}
	cancelJob(t, ts, created.ID)
}

// TestHealthAndList pins the liveness and listing endpoints.
func TestHealthAndList(t *testing.T) {
	_, ts := start(t, campaign.Config{Engine: sweep.New(sweep.Workers(2))})

	var h apiv1.Health
	if code := getJSON(t, ts.URL+"/v1/healthz", &h); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz: HTTP %d %+v", code, h)
	}

	created := postJob(t, ts, tinyReq())
	followEvents(t, ts, created.ID)

	var list apiv1.JobList
	if code := getJSON(t, ts.URL+"/v1/jobs", &list); code != http.StatusOK {
		t.Fatalf("list: HTTP %d", code)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != created.ID || list.Jobs[0].State != apiv1.StateDone {
		t.Fatalf("list wrong: %+v", list.Jobs)
	}
}

// TestDoneJobEviction pins the retention bound: with MaxDoneJobs set, the
// oldest terminal job's whole record is dropped once the bound is crossed,
// its id answering the typed not_found error, while newer terminal jobs
// stay fully retrievable.
func TestDoneJobEviction(t *testing.T) {
	_, ts := start(t, campaign.Config{
		Engine:        sweep.New(sweep.Workers(2)),
		MaxConcurrent: 1,
		MaxDoneJobs:   2,
	})

	var ids []string
	for seed := uint64(0); seed < 3; seed++ {
		req := apiv1.JobRequest{Points: []apiv1.Point{
			{Key: "p", Benchmark: "mcf", Seed: seed, Config: tinyCfg()},
		}}
		created := postJob(t, ts, req)
		waitState(t, ts, created.ID, apiv1.StateDone)
		ids = append(ids, created.ID)
	}

	// Eviction runs just after the worker parks the finished job; give the
	// enforcement a moment before asserting the oldest id is gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var e struct {
			Error *apiv1.Error `json:"error"`
		}
		code := getJSON(t, ts.URL+"/v1/jobs/"+ids[0], &e)
		if code == http.StatusNotFound {
			if e.Error == nil || e.Error.Type != apiv1.ErrNotFound {
				t.Fatalf("evicted id not typed not_found: %+v", e.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("oldest job %s still served (HTTP %d) past MaxDoneJobs", ids[0], code)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The two newest jobs survive, results intact.
	for _, id := range ids[1:] {
		var ar apiv1.ArtefactsResponse
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id+"/artefacts", &ar); code != http.StatusOK {
			t.Fatalf("retained job %s artefacts: HTTP %d", id, code)
		}
		if len(ar.Points) != 1 || ar.Points[0].Res == nil {
			t.Fatalf("retained job %s lost its results: %+v", id, ar.Points)
		}
	}
	var list apiv1.JobList
	getJSON(t, ts.URL+"/v1/jobs", &list)
	if len(list.Jobs) != 2 {
		t.Fatalf("job list has %d entries after eviction, want 2", len(list.Jobs))
	}
}

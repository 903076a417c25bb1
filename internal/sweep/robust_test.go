package sweep

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/sim"
)

// wedgedConfig returns a configuration guaranteed to trip the no-commit
// watchdog: one commit-starvation window longer than the watchdog horizon.
func wedgedConfig() sim.Config {
	cfg := tinyConfig()
	cfg.WatchdogTicks = 20_000
	cfg.Faults = &faults.Plan{
		Seed:  3,
		Specs: []faults.Spec{{Kind: faults.CommitStarve, Period: 4000, Duration: 50_000}},
	}
	return cfg
}

// TestRunErrorStructured pins the failure taxonomy: a wedged point fails
// with a *RunError wrapping the simulator's structured *CheckError (kind
// watchdog, snapshot populated) — not a bare panic, not a hang.
func TestRunErrorStructured(t *testing.T) {
	e := New(Workers(1))
	_, err := e.Run(context.Background(), []Point{
		{Key: "wedged", Benchmark: "mcf", Config: wedgedConfig()},
	})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v (%T), want *RunError", err, err)
	}
	if re.Key != "wedged" || re.Benchmark != "mcf" || re.Attempts != 1 || re.Fingerprint == "" {
		t.Fatalf("RunError fields wrong: %+v", re)
	}
	var ce *sim.CheckError
	if !errors.As(err, &ce) {
		t.Fatalf("RunError does not wrap the CheckError: %v", err)
	}
	if ce.Kind != sim.FailWatchdog {
		t.Fatalf("kind = %v, want watchdog", ce.Kind)
	}
	if ce.Snapshot.Tick == 0 || len(ce.Snapshot.FaultLog) == 0 {
		t.Fatalf("snapshot not populated: %+v", ce.Snapshot)
	}
	if st := e.Stats(); st.Failed != 1 || st.Ran != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The failed point is uncached: a later campaign re-attempts it.
	_, err2 := e.Run(context.Background(), []Point{
		{Key: "wedged", Benchmark: "mcf", Config: wedgedConfig()},
	})
	if e.Stats().Failed != 2 {
		t.Fatalf("failed point was served from cache: %v", err2)
	}
}

// TestFailFastCancelsInFlight pins the default first-failure semantics: a
// failing point promptly aborts a long in-flight simulation through its
// stop channel instead of letting it run to completion.
func TestFailFastCancelsInFlight(t *testing.T) {
	slow := tinyConfig()
	slow.MeasureInstructions = 20_000_000 // many seconds if allowed to finish
	pts := []Point{
		{Key: "slow", Benchmark: "mcf", Config: slow},
		{Key: "wedged", Benchmark: "mcf", Config: wedgedConfig()},
	}
	e := New(Workers(2))
	start := time.Now()
	out, err := e.RunAll(context.Background(), pts)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	var re *RunError
	if !errors.As(out[1].Err, &re) {
		t.Fatalf("wedged point: err = %v, want *RunError", out[1].Err)
	}
	if !isCancel(out[0].Err) {
		t.Fatalf("slow point was not aborted: err = %v (res ticks %d, took %v)",
			out[0].Err, out[0].Res.Ticks, elapsed)
	}
	if st := e.Stats(); st.Failed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestContinueOnError pins the keep-going mode: a failing point does not
// stop the campaign — every other point completes and the failure is
// annotated per point by RunAll (and still surfaced by Run).
func TestContinueOnError(t *testing.T) {
	pts := []Point{
		{Key: "good-a", Benchmark: "eon", Config: tinyConfig()},
		{Key: "wedged", Benchmark: "mcf", Config: wedgedConfig()},
		{Key: "good-b", Benchmark: "eon", Seed: 1, Config: tinyConfig()},
	}
	e := New(Workers(1), ContinueOnError())
	out, err := e.RunAll(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("good points failed: %v / %v", out[0].Err, out[2].Err)
	}
	if out[0].Res.Instructions == 0 || out[2].Res.Instructions == 0 {
		t.Fatal("good points missing results")
	}
	var re *RunError
	if !errors.As(out[1].Err, &re) {
		t.Fatalf("wedged point: err = %v, want *RunError", out[1].Err)
	}
	if st := e.Stats(); st.Ran != 2 || st.Failed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Run on the same campaign reports the genuine failure, not the goods.
	_, err = New(Workers(1), ContinueOnError()).Run(context.Background(), pts)
	if !errors.As(err, &re) || re.Key != "wedged" {
		t.Fatalf("Run err = %v", err)
	}
}

// TestRunTimeoutRetries pins the deadline + retry path: a run that cannot
// finish inside its wall-clock budget fails with kind deadline, is
// classified transient, and is retried exactly Retries times.
func TestRunTimeoutRetries(t *testing.T) {
	big := tinyConfig()
	big.MeasureInstructions = 50_000_000 // cannot finish in a millisecond
	e := New(Workers(1), RunTimeout(time.Millisecond), Retries(2))
	e.backoff = time.Millisecond
	_, err := e.Run(context.Background(), []Point{
		{Key: "slow", Benchmark: "mcf", Config: big},
	})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if re.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", re.Attempts)
	}
	var ce *sim.CheckError
	if !errors.As(err, &ce) || ce.Kind != sim.FailDeadline {
		t.Fatalf("underlying error = %v, want deadline CheckError", re.Err)
	}
	if st := e.Stats(); st.Retried != 2 || st.Failed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCheckpointResume pins the resume contract: a campaign interrupted
// after a prefix completes from the checkpoint alone — only the missing
// points run, and the assembled results are bit-identical to an
// uninterrupted campaign's.
func TestCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	pts := testPoints()

	want, err := New(Workers(2)).Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}

	// First lifetime: complete only the first half, then "die".
	cp, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Workers(2), WithLedger(cp)).Run(context.Background(), pts[:2]); err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	// Second lifetime: reopen and run the full campaign.
	cp2, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if cp2.Loaded() != 2 {
		t.Fatalf("loaded %d records, want 2", cp2.Loaded())
	}
	e := New(Workers(2), WithLedger(cp2))
	got, err := e.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.LedgerHits != 2 || st.Ran != 2 {
		t.Fatalf("stats = %+v, want 2 checkpoint hits + 2 ran", st)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("resumed results differ from uninterrupted results")
	}
}

// TestCheckpointTornTail pins kill-tolerance: a checkpoint whose final line
// was torn by a mid-write kill loads every complete record, skips the
// garbage, and stays appendable.
func TestCheckpointTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	pts := testPoints()

	cp, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Workers(1), WithLedger(cp)).Run(context.Background(), pts[:2]); err != nil {
		t.Fatal(err)
	}
	cp.Close()

	// Simulate a kill mid-write: append half a record.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"fp":"dead","key":"torn","res":{"Benchm`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cp2, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp2.Loaded() != 2 {
		t.Fatalf("loaded %d records after torn tail, want 2", cp2.Loaded())
	}
	// Still appendable: complete the campaign and reload it all.
	if _, err := New(Workers(1), WithLedger(cp2)).Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	cp2.Close()
	cp3, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp3.Close()
	if cp3.Loaded() != len(pts) {
		t.Fatalf("loaded %d records after resume, want %d", cp3.Loaded(), len(pts))
	}
	e := New(Workers(1), WithLedger(cp3))
	if _, err := e.Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Ran != 0 || st.LedgerHits != len(pts) {
		t.Fatalf("full checkpoint did not satisfy the campaign: %+v", st)
	}
}

// TestCheckpointRoundTripExact pins the byte-identity foundation: results
// loaded from a checkpoint are bit-identical (every float64) to the
// originals.
func TestCheckpointRoundTripExact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	pts := testPoints()
	want, err := New(Workers(2)).Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Workers(2), WithLedger(cp)).Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	cp.Close()
	cp2, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	for i, p := range pts {
		fp, _ := p.Fingerprint()
		got, ok := cp2.Lookup(fp)
		if !ok {
			t.Fatalf("point %q missing from checkpoint", p.Key)
		}
		if !reflect.DeepEqual(want[i], got) {
			t.Fatalf("point %q did not round-trip exactly:\nwant %+v\ngot  %+v", p.Key, want[i], got)
		}
	}
}

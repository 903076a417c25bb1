package sweep

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/campaign/apiv1"
	"repro/internal/failpoint"
	"repro/internal/sim"
)

func ledgerPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "ledger.jsonl")
}

// TestLedgerRoundTrip pins the basic protocol: a completion written by one
// ledger handle is visible to a fresh handle on the same file, and a
// completed point is never claimable.
func TestLedgerRoundTrip(t *testing.T) {
	path := ledgerPath(t)
	a, err := OpenLedger(path, LedgerWorker("a"))
	if err != nil {
		t.Fatal(err)
	}
	p := testPoints()[0]
	fp, err := p.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(Workers(1)).Run(context.Background(), []Point{p})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Complete(fp, p.Key, res[0]); err != nil {
		t.Fatal(err)
	}
	a.Close()

	b, err := OpenLedger(path, LedgerWorker("b"))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got, ok := b.Lookup(fp)
	if !ok {
		t.Fatal("completion not visible to a fresh ledger handle")
	}
	if !reflect.DeepEqual(got, res[0]) {
		t.Error("results changed across the ledger round trip")
	}
	if won, _, err := b.TryClaim(fp, p.Key); err != nil || won {
		t.Errorf("TryClaim on a completed point: won=%v err=%v, want false/nil", won, err)
	}
}

// TestLedgerClaimLifecycle pins the claim state machine: an unclaimed
// point is claimable; a live foreign claim is not; an expired foreign
// claim is stolen; a completion ends the cycle.
func TestLedgerClaimLifecycle(t *testing.T) {
	path := ledgerPath(t)
	a, err := OpenLedger(path, LedgerWorker("a"), LedgerClaimTTL(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := OpenLedger(path, LedgerWorker("b"), LedgerClaimTTL(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if won, stole, err := a.TryClaim("fp1", "k"); err != nil || !won || stole {
		t.Fatalf("first claim: won=%v stole=%v err=%v, want true/false/nil", won, stole, err)
	}
	if won, _, err := b.TryClaim("fp1", "k"); err != nil || won {
		t.Fatalf("claim against a live foreign claim: won=%v err=%v, want false/nil", won, err)
	}
	time.Sleep(80 * time.Millisecond)
	if won, stole, err := b.TryClaim("fp1", "k"); err != nil || !won || !stole {
		t.Fatalf("claim against an expired foreign claim: won=%v stole=%v err=%v, want true/true/nil", won, stole, err)
	}
	// A re-claim by the current owner refreshes its own deadline, no steal.
	if won, stole, err := b.TryClaim("fp1", "k"); err != nil || !won || stole {
		t.Fatalf("re-claim by owner: won=%v stole=%v err=%v, want true/false/nil", won, stole, err)
	}
}

// TestLedgerSkipsCorruptLines pins multi-writer tolerance: a ledger with
// an undecodable complete line (and a torn unterminated tail) still serves
// every valid record — skipping, never truncating, because another
// process may own valid bytes after the bad line.
func TestLedgerSkipsCorruptLines(t *testing.T) {
	path := ledgerPath(t)
	a, err := OpenLedger(path, LedgerWorker("a"))
	if err != nil {
		t.Fatal(err)
	}
	p := testPoints()[0]
	fp, _ := p.Fingerprint()
	res, err := New(Workers(1)).Run(context.Background(), []Point{p})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Complete(fp, p.Key, res[0]); err != nil {
		t.Fatal(err)
	}
	a.Close()

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A complete-but-corrupt line, then a valid claim, then a torn tail.
	if _, err := f.WriteString("{broken json\n"); err != nil {
		t.Fatal(err)
	}
	line, err := apiv1.EncodeClaimRecord("fp2", "k", "ghost", time.Now().Add(time.Hour).UnixMilli())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":1,"fp":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	b, err := OpenLedger(path, LedgerWorker("b"))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, ok := b.Lookup(fp); !ok {
		t.Error("valid completion lost after corrupt line")
	}
	if got := b.Skipped(); got != 1 {
		t.Errorf("Skipped=%d, want 1", got)
	}
	if won, _, err := b.TryClaim("fp2", "k"); err != nil || won {
		t.Errorf("claim behind the corrupt line not honoured: won=%v err=%v", won, err)
	}
}

// TestLedgerTornFragment pins the leading terminator on every append: a
// record written after another writer's unterminated half-line must not be
// glued onto it — whether the dead writer left the fragment before this
// handle opened the file or after this handle last read it. A fresh reader
// sees the record and skips the capped fragment.
func TestLedgerTornFragment(t *testing.T) {
	res := sim.Results{Benchmark: "mcf", Ticks: 42, IPC: 0.5}
	tear := func(t *testing.T, path string) {
		t.Helper()
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"v":1,"kind":"claim","fp":"dead","wor`); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	open := func(t *testing.T, path, worker string) *Ledger {
		t.Helper()
		l, err := OpenLedger(path, LedgerWorker(worker))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l
	}

	t.Run("complete-after-dead-writer", func(t *testing.T) {
		path := ledgerPath(t)
		tear(t, path)
		if err := open(t, path, "fresh").Complete("fpA", "k", res); err != nil {
			t.Fatal(err)
		}
		reader := open(t, path, "reader")
		if got, ok := reader.Lookup("fpA"); !ok || !reflect.DeepEqual(got, res) {
			t.Fatal("completion appended after a torn fragment is invisible to a fresh reader")
		}
		if reader.Skipped() != 1 {
			t.Errorf("Skipped=%d, want 1 (the capped fragment)", reader.Skipped())
		}
	})

	t.Run("poison-after-refresh", func(t *testing.T) {
		path := ledgerPath(t)
		sup := open(t, path, "parent")
		tear(t, path)
		if err := sup.Refresh(); err != nil {
			t.Fatal(err)
		}
		if err := sup.Poison("fpA", "k", "crashed 2 workers (exit 17)"); err != nil {
			t.Fatal(err)
		}
		if _, ok := open(t, path, "w0g1").PoisonReason("fpA"); !ok {
			t.Fatal("quarantine appended after a torn fragment is invisible to a restarted worker")
		}
	})
}

// TestLedgerResumeTakesBackOwnClaims pins -checkpoint resume: a run killed
// while holding live claims, resumed through the same file under the same
// worker name, takes those claims back at once — no steals, and no wait
// for the (default 10 s) claim TTL.
func TestLedgerResumeTakesBackOwnClaims(t *testing.T) {
	path := ledgerPath(t)
	pts := testPoints()
	dead, err := OpenLedger(path, LedgerWorker("experiments"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts[1:3] {
		fp, _ := p.Fingerprint()
		if won, _, err := dead.TryClaim(fp, p.Key); err != nil || !won {
			t.Fatalf("claim %s: won=%v err=%v", p.Key, won, err)
		}
	}
	dead.Close() // killed mid-campaign: both claims stay live on disk

	led, err := OpenLedger(path, LedgerWorker("experiments"))
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	e := New(Workers(2), WithLedger(led))
	start := time.Now()
	if _, err := e.Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= 10*time.Second {
		t.Errorf("resume took %v, want well under the 10 s claim TTL", elapsed)
	}
	if st := e.Stats(); st.Steals != 0 || st.Ran != len(pts) {
		t.Errorf("stats = %+v, want 0 steals and %d ran", st, len(pts))
	}
}

// TestLedgerCrashRecovery is the crash-recovery satellite at the library
// level: a worker claims points and dies without completing them (its
// handle abandoned, claims dangling — exactly the state a killed process
// leaves). A second worker with a short claim TTL must reap the stale
// claims, re-steal the points, and produce results identical to a
// ledger-free run.
func TestLedgerCrashRecovery(t *testing.T) {
	path := ledgerPath(t)
	pts := testPoints()

	// Reference: the same campaign with no ledger at all.
	want, err := New(Workers(2)).Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}

	// The doomed worker: completes the first point, claims the next two,
	// then "dies" — no completions, no close of its claims.
	doomed, err := OpenLedger(path, LedgerWorker("doomed"), LedgerClaimTTL(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	fp0, _ := pts[0].Fingerprint()
	if err := doomed.Complete(fp0, pts[0].Key, want[0]); err != nil {
		t.Fatal(err)
	}
	for _, p := range pts[1:3] {
		fp, _ := p.Fingerprint()
		if won, _, err := doomed.TryClaim(fp, p.Key); err != nil || !won {
			t.Fatalf("doomed worker could not claim %s: won=%v err=%v", p.Key, won, err)
		}
	}
	doomed.Close() // the file handle dies; the dangling claims stay on disk

	// The survivor: must hit the completed point, wait out and steal the
	// dangling claims, and run everything else.
	led, err := OpenLedger(path,
		LedgerWorker("survivor"),
		LedgerClaimTTL(100*time.Millisecond),
		LedgerPoll(10*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	e := New(Workers(2), WithLedger(led))
	got, err := e.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("post-crash results differ from the uninterrupted run")
	}
	st := e.Stats()
	if st.LedgerHits != 1 {
		t.Errorf("LedgerHits=%d, want 1 (the point the doomed worker completed)", st.LedgerHits)
	}
	if st.Steals != 2 {
		t.Errorf("Steals=%d, want 2 (the doomed worker's dangling claims)", st.Steals)
	}
	if st.Ran != len(pts)-1 {
		t.Errorf("Ran=%d, want %d", st.Ran, len(pts)-1)
	}
}

// TestLedgerTwoEnginesShareWork runs the same campaign concurrently on two
// engines sharing one ledger (two in-process stand-ins for two worker
// processes): both must return the full, identical result set while each
// point executes roughly once — the work-stealing split.
func TestLedgerTwoEnginesShareWork(t *testing.T) {
	path := ledgerPath(t)
	pts := append(testPoints(), seedPoints(4, 11)...)
	want, err := New(Workers(2)).Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}

	mk := func(name string) (*Ledger, *Engine) {
		led, err := OpenLedger(path, LedgerWorker(name), LedgerPoll(5*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		return led, New(Workers(2), WithLedger(led))
	}
	ledA, ea := mk("a")
	defer ledA.Close()
	ledB, eb := mk("b")
	defer ledB.Close()

	var wg sync.WaitGroup
	results := make([][]sim.Results, 2)
	errs := make([]error, 2)
	for i, e := range []*Engine{ea, eb} {
		wg.Add(1)
		go func(i int, e *Engine) {
			defer wg.Done()
			results[i], errs[i] = e.Run(context.Background(), pts)
		}(i, e)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("engine %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Errorf("engine %d results differ from the solo run", i)
		}
	}
	ran := ea.Stats().Ran + eb.Stats().Ran
	if ran < len(pts) {
		t.Errorf("total Ran=%d < %d points", ran, len(pts))
	}
	// The advisory-claim race allows the odd duplicate, but the protocol
	// must not degenerate into everyone running everything.
	if ran > len(pts)+2 {
		t.Errorf("total Ran=%d, want close to %d (work not shared)", ran, len(pts))
	}
}

// TestLedgerFailpointTornAppend pins multi-writer ENOSPC recovery: a torn
// completion line surfaces as a typed ENOSPC error, the next append repairs
// the tail (terminating the fragment so it skips as one bad line), and a
// fresh handle recovers everything except the torn record — which stays
// claimable and re-runnable.
func TestLedgerFailpointTornAppend(t *testing.T) {
	defer failpoint.Disarm()
	path := ledgerPath(t)
	led, err := OpenLedger(path, LedgerWorker("torn"))
	if err != nil {
		t.Fatal(err)
	}
	pts := testPoints()
	res, err := New(Workers(1)).Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	fps := make([]string, len(pts))
	for i, p := range pts {
		fps[i], _ = p.Fingerprint()
	}

	if err := failpoint.Arm("ledger.append=enospc"); err != nil {
		t.Fatal(err)
	}
	err = led.Complete(fps[0], pts[0].Key, res[0])
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("torn Complete = %v, want ENOSPC in chain", err)
	}
	failpoint.Disarm()

	// The handle keeps working: the next append must repair the torn tail
	// so this record decodes for every reader.
	if err := led.Complete(fps[1], pts[1].Key, res[1]); err != nil {
		t.Fatalf("Complete after torn append: %v", err)
	}

	fresh, err := OpenLedger(path, LedgerWorker("reader"))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, ok := fresh.Lookup(fps[1]); !ok {
		t.Fatal("completion after the torn line lost")
	}
	if _, ok := fresh.Lookup(fps[0]); ok {
		t.Fatal("torn completion resurrected")
	}
	if fresh.Skipped() != 1 {
		t.Errorf("Skipped=%d, want 1 (the terminated torn fragment)", fresh.Skipped())
	}
	if won, _, err := fresh.TryClaim(fps[0], pts[0].Key); err != nil || !won {
		t.Fatalf("torn point not re-claimable: won=%v err=%v", won, err)
	}
	led.Close()
}

// TestLedgerFailpointShortWriteClaim pins the same tear on the claim path
// with io.ErrShortWrite: TryClaim surfaces the typed error and the engine
// treats the point as unclaimed everywhere.
func TestLedgerFailpointShortWriteClaim(t *testing.T) {
	defer failpoint.Disarm()
	path := ledgerPath(t)
	led, err := OpenLedger(path, LedgerWorker("short"))
	if err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Arm("ledger.append=short"); err != nil {
		t.Fatal(err)
	}
	_, _, cerr := led.TryClaim("fpX", "k")
	if !errors.Is(cerr, io.ErrShortWrite) {
		t.Fatalf("torn TryClaim = %v, want ErrShortWrite in chain", cerr)
	}
	failpoint.Disarm()
	led.Close()

	fresh, err := OpenLedger(path, LedgerWorker("reader"))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if won, _, err := fresh.TryClaim("fpX", "k"); err != nil || !won {
		t.Fatalf("point behind torn claim not claimable: won=%v err=%v", won, err)
	}
}

// TestLedgerPoisonQuarantine pins the quarantine protocol end to end: a
// poisoned fingerprint fails typed (apiv1.ErrPoisoned) through the engine
// without running, other handles see the quarantine after refresh, and a
// completion supersedes it.
func TestLedgerPoisonQuarantine(t *testing.T) {
	path := ledgerPath(t)
	pts := testPoints()
	want, err := New(Workers(2)).Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	fp0, _ := pts[0].Fingerprint()

	parent, err := OpenLedger(path, LedgerWorker("parent"))
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.Poison(fp0, pts[0].Key, "crashed 2 workers (exit 17)"); err != nil {
		t.Fatal(err)
	}
	parent.Close()

	led, err := OpenLedger(path, LedgerWorker("w"), LedgerPoll(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	if reason, ok := led.PoisonReason(fp0); !ok || reason == "" {
		t.Fatal("poison record not visible to a fresh handle")
	}
	if won, _, err := led.TryClaim(fp0, pts[0].Key); err != nil || won {
		t.Fatalf("poisoned point claimed: won=%v err=%v", won, err)
	}

	// Through the engine (ContinueOnError): the poisoned point fails typed,
	// every other point still runs to the reference result.
	e := New(Workers(2), WithLedger(led), ContinueOnError())
	out, err := e.RunAll(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	var pe *PoisonedError
	if out[0].Err == nil || !errors.As(out[0].Err, &pe) {
		t.Fatalf("poisoned point outcome = %v, want *PoisonedError", out[0].Err)
	}
	if ae := APIError(out[0].Err); ae.Type != apiv1.ErrPoisoned || ae.Fingerprint != fp0 {
		t.Fatalf("poisoned wire error = %+v, want type %q", ae, apiv1.ErrPoisoned)
	}
	for i := 1; i < len(pts); i++ {
		if out[i].Err != nil {
			t.Fatalf("healthy point %d failed: %v", i, out[i].Err)
		}
		if !reflect.DeepEqual(out[i].Res, want[i]) {
			t.Fatalf("healthy point %d diverged from the reference", i)
		}
	}

	// A completion supersedes the quarantine (the point ran somewhere).
	healer, err := OpenLedger(path, LedgerWorker("healer"))
	if err != nil {
		t.Fatal(err)
	}
	if err := healer.Complete(fp0, pts[0].Key, want[0]); err != nil {
		t.Fatal(err)
	}
	healer.Close()
	if err := led.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, ok := led.PoisonReason(fp0); ok {
		t.Fatal("completion did not supersede the quarantine")
	}
	if got, ok := led.Lookup(fp0); !ok || !reflect.DeepEqual(got, want[0]) {
		t.Fatal("superseding completion not served")
	}
}

// TestLedgerClaimsBy pins the supervisor's view: after a refresh, a dead
// worker's claims are attributable to it by name.
func TestLedgerClaimsBy(t *testing.T) {
	path := ledgerPath(t)
	dead, err := OpenLedger(path, LedgerWorker("w1g0"))
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range []string{"fpA", "fpB"} {
		if won, _, err := dead.TryClaim(fp, "key-"+fp); err != nil || !won {
			t.Fatalf("claim %s: won=%v err=%v", fp, won, err)
		}
	}
	dead.Close() // dies holding both claims

	sup, err := OpenLedger(path, LedgerWorker("parent"))
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	claims := sup.ClaimsBy("w1g0")
	if len(claims) != 2 {
		t.Fatalf("ClaimsBy(w1g0) = %v, want the dead worker's 2 claims", claims)
	}
	for _, c := range claims {
		if c.Key != "key-"+c.FP {
			t.Fatalf("claim %v lost its key", c)
		}
	}
	if got := sup.ClaimsBy("nobody"); len(got) != 0 {
		t.Fatalf("ClaimsBy(nobody) = %v, want none", got)
	}
}

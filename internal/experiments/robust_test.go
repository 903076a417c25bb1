package experiments

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// campaignText renders a small campaign to its stdout byte stream.
func campaignText(t *testing.T, o Options, names ...string) string {
	t.Helper()
	arts, err := Artefacts(names...)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if _, err := RunArtefacts(&b, o, Spec{}, arts, false); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestResumeByteIdentical pins the checkpoint/resume contract end to end
// through the render path: a campaign completed across two process
// "lifetimes" (a partial run that checkpoints, then a resumed full run)
// produces stdout bytes identical to an uninterrupted campaign's.
func TestResumeByteIdentical(t *testing.T) {
	o := Options{WarmupInstructions: 4_000, MeasureInstructions: 16_000, Parallelism: 4}
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")

	want := campaignText(t, o, "fig4", "summary")

	// Lifetime 1: only part of the campaign completes before the "kill".
	cp, err := sweep.OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	o1 := o
	o1.Engine = sweep.New(sweep.Workers(o.Parallelism), sweep.WithLedger(cp))
	campaignText(t, o1, "fig4")
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	// Lifetime 2: resume and run the full campaign.
	cp2, err := sweep.OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if cp2.Loaded() == 0 {
		t.Fatal("nothing checkpointed in the first lifetime")
	}
	o2 := o
	o2.Engine = sweep.New(sweep.Workers(o.Parallelism), sweep.WithLedger(cp2))
	got := campaignText(t, o2, "fig4", "summary")

	if got != want {
		t.Fatal("resumed stdout differs from uninterrupted stdout")
	}
	if st := o2.Engine.Stats(); st.LedgerHits == 0 {
		t.Fatalf("resume did not use the checkpoint: %+v", st)
	}
}

// TestContinueOnErrorAnnotates pins graceful degradation: with
// ContinueOnError, an artefact whose campaign fails renders as a FAILED
// annotation while the other artefacts' outputs stand.
func TestContinueOnErrorAnnotates(t *testing.T) {
	o := Options{WarmupInstructions: 4_000, MeasureInstructions: 16_000, Parallelism: 2,
		ContinueOnError: true}
	o.Engine = sweep.New(sweep.Workers(2), sweep.ContinueOnError())

	good, err := Artefacts("table1")
	if err != nil {
		t.Fatal(err)
	}
	bad := Artefact{Name: "broken", run: func(o Options, s Spec) (Output, error) {
		_, err := Figure4(o, []string{"nonesuch"})
		return Output{}, err
	}}
	outs, err := RunArtefacts(nil, o, Spec{}, append(good, bad), false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(outs[0].Text, "Table 1") {
		t.Fatalf("good artefact missing: %q", outs[0].Text)
	}
	if !strings.HasPrefix(outs[1].Text, "broken: FAILED: ") {
		t.Fatalf("failed artefact not annotated: %q", outs[1].Text)
	}

	// Without ContinueOnError the same campaign fails outright.
	o.ContinueOnError = false
	if _, err := RunArtefacts(nil, o, Spec{}, append(good, bad), false); err == nil {
		t.Fatal("fail-fast campaign did not report the failure")
	}
}

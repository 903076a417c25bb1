package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign/apiv1"
	"repro/internal/sim"
)

// TestResumeParentFormatCheckpoint pins -checkpoint file compatibility: a
// file in the format earlier releases wrote — bare completion lines, no
// claims, alternating v1 checkpoint records and legacy unversioned ones —
// resumes through -checkpoint -resume with every point served from the
// file and stdout byte-identical to the run that produced the results.
func TestResumeParentFormatCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/experiments").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) (stdout, stderr string) {
		t.Helper()
		var out, errb bytes.Buffer
		cmd := exec.Command(bin, append([]string{"-exp", "fig4", "-benchmarks", "mcf,eon",
			"-warmup", "4000", "-instructions", "16000"}, args...)...)
		cmd.Stdout, cmd.Stderr = &out, &errb
		if err := cmd.Run(); err != nil {
			t.Fatalf("experiments %s: %v\n%s", strings.Join(args, " "), err, errb.String())
		}
		return out.String(), errb.String()
	}

	fresh := filepath.Join(dir, "fresh.jsonl")
	want, _ := run("-checkpoint", fresh)
	data, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	var old bytes.Buffer
	n := 0
	for _, line := range bytes.Split(data, []byte("\n")) {
		rec, err := apiv1.DecodeLedgerRecord(line)
		if err != nil || rec.Claim || rec.Poison {
			continue
		}
		enc, err := apiv1.EncodeCheckpointRecord(rec.FP, rec.Key, rec.Res)
		if n%2 == 1 {
			enc, err = json.Marshal(struct {
				FP  string      `json:"fp"`
				Key string      `json:"key"`
				Res sim.Results `json:"res"`
			}{rec.FP, rec.Key, rec.Res})
		}
		if err != nil {
			t.Fatal(err)
		}
		old.Write(append(enc, '\n'))
		n++
	}
	if n < 2 {
		t.Fatalf("fresh checkpoint holds %d completions, want at least 2", n)
	}
	parent := filepath.Join(dir, "parent.jsonl")
	if err := os.WriteFile(parent, old.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	got, stderr := run("-checkpoint", parent, "-resume")
	if got != want {
		t.Error("resumed stdout differs from the run that wrote the checkpoint")
	}
	for _, s := range []string{fmt.Sprintf("resuming: %d checkpointed points", n), ", 0 simulated,"} {
		if !strings.Contains(stderr, s) {
			t.Errorf("stderr lacks %q:\n%s", s, stderr)
		}
	}
}

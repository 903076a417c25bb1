package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
)

var (
	workerRan = regexp.MustCompile(`(?m)^worker \d+: ran (\d+), ledger hits \d+, steals \d+$`)
	parentRan = regexp.MustCompile(`(?m)^vsvcampaign: \d+ procs, \d+ points: \d+ from ledger, (\d+) run by parent, \d+ stolen \(ledger holds (\d+)\)$`)
)

// campaign2 is the golden campaign across two worker processes sharing one
// work-stealing ledger: `vsvcampaign -exp all -procs 2 -parallel 1` with
// GOMAXPROCS=1 in every process, its stdout hashed against the golden
// digest. It is the only workload that runs internal/multiproc and
// sweep.Ledger. The binary is built by run.sh before the run starts.
type campaign2 struct {
	base
	e      *env
	bin    string
	ledger string
	unique int       // distinct points per campaign (the ledger's size)
	useful []float64 // unique points over executions, per op
	trees  []float64 // summed peak RSS of each op's process tree, bytes
	opens  []float64 // traced: OpenLedger replay of the op's full ledger
}

// setup runs one campaign, untimed by ops: it pays the binary's first
// load and proves the workload runs.
func (w *campaign2) setup() error {
	w.bin = filepath.Join(w.e.out, "bin", "vsvcampaign")
	w.ledger = filepath.Join(w.e.tmp, "campaign.ledger.jsonl")
	if _, err := os.Stat(w.bin); err != nil {
		return fmt.Errorf("vsvcampaign binary (run.sh builds it): %w", err)
	}
	_, err := w.op(-1, scope{})
	return err
}

func (w *campaign2) shape() shape {
	return shape{kinds: 1, inst: float64(w.unique) * (goldenWarmup + goldenMeasure), minOps: 4}
}

func (w *campaign2) op(_ int, sc scope) (time.Duration, error) {
	args := []string{"-exp", "all", "-procs", "2", "-parallel", "1",
		"-warmup", strconv.Itoa(goldenWarmup), "-instructions", strconv.Itoa(goldenMeasure),
		"-ledger", w.ledger}
	if sc.traced() {
		args = append(args, "-keep-ledger")
	}
	cmd := exec.Command(w.bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1", "TMPDIR="+w.e.tmp)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	sp := sc.span("multiproc.vsvcampaign")
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		sp.end()
		return 0, err
	}
	tree := sampleTree(cmd.Process.Pid)
	werr := cmd.Wait()
	d := time.Since(t0)
	sp.end()
	peak := tree.finish()
	if werr != nil {
		return d, fmt.Errorf("vsvcampaign: %w: %s", werr, bytes.TrimSpace(stderr.Bytes()))
	}
	if err := w.e.checkGolden(stdout.Bytes()); err != nil {
		return d, err
	}
	ran := 0
	for _, m := range workerRan.FindAllSubmatch(stderr.Bytes(), -1) {
		n, _ := strconv.Atoi(string(m[1]))
		ran += n
	}
	m := parentRan.FindSubmatch(stderr.Bytes())
	if m == nil {
		return d, fmt.Errorf("vsvcampaign: no summary line in %q", stderr.String())
	}
	byParent, _ := strconv.Atoi(string(m[1]))
	w.unique, _ = strconv.Atoi(string(m[2]))
	w.useful = append(w.useful, float64(w.unique)/float64(ran+byParent))
	w.trees = append(w.trees, float64(peak))
	if sc.traced() {
		s, err := probe(sc.tr, "sweep.OpenLedger", func(scope) error {
			l, err := sweep.OpenLedger(w.ledger)
			if err != nil {
				return err
			}
			return l.Close()
		})
		if err != nil {
			return d, err
		}
		w.opens = append(w.opens, s)
		if err := os.Remove(w.ledger); err != nil {
			return d, err
		}
	}
	return d, nil
}

// childRSS is the median op's process tree: the vsvcampaign parent and
// its workers, each at its own peak.
func (w *campaign2) childRSS() float64 { return median(w.trees) }

func (w *campaign2) layers(tr *tracer, out outcome, v map[string]float64) error {
	v["ledger.open_s"] = median(w.opens)
	v["ledger.useful_frac"] = median(w.useful)
	claim, complete, refresh, err := ledgerProbes(tr, w.e.tmp, 200)
	if err != nil {
		return err
	}
	v["ledger.claim_s"] = median(claim)
	v["ledger.complete_s"] = median(complete)
	v["ledger.refresh_s"] = median(refresh)
	return nil
}

// ledgerProbes times the ledger's per-point protocol on a scratch file: a
// claim and a completion by one worker, then another worker's refresh,
// which absorbs both records.
func ledgerProbes(tr *tracer, dir string, n int) (claim, complete, refresh []float64, err error) {
	path := filepath.Join(dir, "probe.ledger.jsonl")
	a, err := sweep.OpenLedger(path, sweep.LedgerWorker("a"))
	if err != nil {
		return nil, nil, nil, err
	}
	defer a.Close()
	b, err := sweep.OpenLedger(path, sweep.LedgerWorker("b"))
	if err != nil {
		return nil, nil, nil, err
	}
	defer b.Close()
	m, err := sim.NewBench("mcf", sim.WithWindows(rawWarmup, rawMeasure))
	if err != nil {
		return nil, nil, nil, err
	}
	res := m.Run("mcf")
	for i := 0; i < n; i++ {
		fp, key := fmt.Sprintf("%064x", i), fmt.Sprintf("probe/%d", i)
		s, err := probe(tr, "sweep.Ledger.TryClaim", func(scope) error {
			won, _, err := a.TryClaim(fp, key)
			if err == nil && !won {
				err = fmt.Errorf("claim of a fresh point %s lost", fp)
			}
			return err
		})
		if err != nil {
			return nil, nil, nil, err
		}
		claim = append(claim, s)
		if s, err = probe(tr, "sweep.Ledger.Complete", func(scope) error { return a.Complete(fp, key, res) }); err != nil {
			return nil, nil, nil, err
		}
		complete = append(complete, s)
		if s, err = probe(tr, "sweep.Ledger.Refresh", func(scope) error { return b.Refresh() }); err != nil {
			return nil, nil, nil, err
		}
		refresh = append(refresh, s)
	}
	return claim, complete, refresh, nil
}

func (w *campaign2) close() {}

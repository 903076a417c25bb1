// Command experiments regenerates the paper's evaluation artefacts —
// Table 1, Table 2, Figures 4–7 and the §6 headline averages — on the
// simulated machine, printing the same rows and series the paper reports.
//
// Artefacts are declared in internal/experiments and executed concurrently
// against one shared sweep engine: points repeated across experiments (the
// per-benchmark baselines, most notably) are simulated once per invocation,
// and independent figures overlap instead of queuing. The engine's
// run/cache-hit counters are reported on stderr. Output on stdout is
// byte-identical for any -parallel value, with or without -seq, and with or
// without -slowtick (the fast-forward differential knob).
//
// Examples:
//
//	experiments -exp table2
//	experiments -exp fig4
//	experiments -exp all -instructions 300000
//	experiments -exp fig5 -benchmarks mcf,ammp,swim
//	experiments -exp all -parallel 16 -progress
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cliconfig"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/sweep"
)

func main() {
	var simFlags cliconfig.SimFlags
	var profFlags cliconfig.ProfileFlags
	var (
		exp      = flag.String("exp", "all", "experiment: table1, table2, fig4, fig5, fig6, fig7, summary, residency, robustness, sensitivity, all")
		parallel = cliconfig.RegisterParallel(flag.CommandLine)
		benches  = flag.String("benchmarks", "", "comma-separated benchmark subset (default: the experiment's own set)")
		csvDir   = flag.String("csvdir", "", "also write each artefact as CSV into this directory")
		seeds    = flag.Int("seeds", 5, "workload seeds for -exp robustness")
		progress = flag.Bool("progress", false, "report campaign progress on stderr")
		seq      = flag.Bool("seq", false, "run artefacts sequentially instead of concurrently (same output bytes)")
		slowtick = flag.Bool("slowtick", false, "disable the event-driven fast-forward (debug; results are bit-identical)")

		checkpoint = flag.String("checkpoint", "", "checkpoint completed points to this JSONL file (enables -resume after an interruption)")
		resume     = flag.Bool("resume", false, "resume from the -checkpoint file: previously completed points are not re-simulated")
		runTimeout = flag.Duration("run-timeout", 0, "per-simulation wall-clock deadline (0 disables; expired runs fail structurally and are retried per -retries)")
		retries    = flag.Int("retries", 0, "extra attempts for transiently-failed points (deadline expiries)")
		keepGoing  = flag.Bool("keep-going", false, "on a point failure, keep draining the campaign and annotate failed artefacts instead of aborting")
	)
	simFlags.RegisterWindows(flag.CommandLine)
	profFlags.RegisterProfiles(flag.CommandLine)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		profFlags.Stop()
		os.Exit(1)
	}

	if err := profFlags.Start(); err != nil {
		fail(err)
	}

	var arts []experiments.Artefact
	if *exp == "all" {
		arts = experiments.AllArtefacts()
	} else {
		var err error
		if arts, err = experiments.Artefacts(*exp); err != nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
			os.Exit(2)
		}
	}

	spec := experiments.Spec{Seeds: *seeds}
	if *benches != "" {
		names, err := cliconfig.Benchmarks(*benches, nil)
		if err != nil {
			fail(err)
		}
		spec.Benchmarks = names
	}

	engineOpts := []sweep.Option{sweep.Workers(*parallel)}
	if *runTimeout > 0 {
		engineOpts = append(engineOpts, sweep.RunTimeout(*runTimeout))
	}
	if *retries > 0 {
		engineOpts = append(engineOpts, sweep.Retries(*retries))
	}
	if *keepGoing {
		engineOpts = append(engineOpts, sweep.ContinueOnError())
	}

	if *resume && *checkpoint == "" {
		fail(fmt.Errorf("-resume requires -checkpoint"))
	}
	if *checkpoint != "" {
		if *resume {
			if _, err := os.Stat(*checkpoint); err != nil {
				fail(fmt.Errorf("-resume: no checkpoint to resume from: %w", err))
			}
		} else {
			// A fresh campaign must not inherit a stale file's points.
			if err := os.Remove(*checkpoint); err != nil && !os.IsNotExist(err) {
				fail(err)
			}
		}
		// The checkpoint is a ledger this command alone writes. Its fixed
		// worker name lets a resumed run take back the claims a killed
		// predecessor left live instead of waiting out their TTL.
		led, err := sweep.OpenLedger(*checkpoint, sweep.LedgerWorker("experiments"))
		if err != nil {
			fail(err)
		}
		defer led.Close()
		if *resume && led.Loaded() > 0 {
			fmt.Fprintf(os.Stderr, "resuming: %d checkpointed points loaded from %s\n",
				led.Loaded(), *checkpoint)
		}
		engineOpts = append(engineOpts, sweep.WithLedger(led))
	}
	if *progress {
		engineOpts = append(engineOpts, sweep.OnProgress(func(p sweep.Progress) {
			fmt.Fprintf(os.Stderr, "sweep: %d/%d points (%d cache hits, %.1f sims/s, worst %s %v)\n",
				p.Done, p.Total, p.CacheHits, p.SimsPerSec, p.WorstKey, p.WorstRun.Round(1e6))
		}))
	}
	engine := sweep.New(engineOpts...)
	o := experiments.Options{
		WarmupInstructions:  simFlags.Warmup,
		MeasureInstructions: simFlags.Measure,
		Parallelism:         *parallel,
		Engine:              engine,
		ForceSlowTick:       *slowtick,
		ContinueOnError:     *keepGoing,
	}

	// Artefact text streams straight to stdout (in artefact order), exactly
	// as the historical print loop did; outs is kept for the CSV sink.
	outs, err := experiments.RunArtefacts(os.Stdout, o, spec, arts, *seq)
	if err != nil {
		fail(err)
	}

	writeCSV := func(exp string, t *report.Table) {
		if *csvDir == "" || t == nil {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fail(err)
		}
		path := filepath.Join(*csvDir, experiments.CSVName(exp))
		if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}

	for _, out := range outs {
		writeCSV(out.Name, out.CSV)
	}

	if st := engine.Stats(); st.Points > 0 {
		fmt.Fprintf(os.Stderr,
			"sweep: %d points, %d simulated, %d cache hits, %v total sim time (worst %s %v)\n",
			st.Points, st.Ran, st.CacheHits, st.SimTime.Round(1e6),
			st.WorstKey, st.WorstRun.Round(1e6))
		if st.LedgerHits > 0 || st.Failed > 0 || st.Retried > 0 {
			fmt.Fprintf(os.Stderr, "sweep: %d checkpoint hits, %d failed, %d retried\n",
				st.LedgerHits, st.Failed, st.Retried)
		}
	}
	if err := profFlags.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

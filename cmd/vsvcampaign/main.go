// Command vsvcampaign runs the paper's evaluation artefacts across K
// worker processes sharing one work-stealing ledger, then renders the
// merged output deterministically. It is the multi-process face of
// cmd/experiments: the artefact text on stdout is byte-identical to a
// sequential single-process run for any -procs value — and stays so even
// when a worker is killed mid-campaign, because the killed worker's
// claimed points are re-stolen after their claim deadline and every
// simulation is deterministic.
//
// The parent forks K copies of its own binary (argv preserved, worker
// index and ledger path in the environment). Each worker executes the full
// campaign against the shared ledger: completed points are ledger hits,
// unclaimed points are claimed and run, and points under another worker's
// live claim are deferred and revisited — so the K processes stream
// through disjoint spans of the grid. The parent then replays the campaign
// itself with the same ledger attached: by then every point is a ledger
// hit (any the workers missed run locally), and the artefact renderer sees
// exactly the results a sequential run would have produced.
//
// Examples:
//
//	vsvcampaign -exp table2 -procs 4
//	vsvcampaign -exp all -procs 8 -parallel 2 -ledger /tmp/campaign.jsonl -keep-ledger
//	vsvcampaign -exp fig4 -procs 4 -chaos-kill-worker 1 -chaos-kill-after 3   (crash-recovery drill)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/cliconfig"
	"repro/internal/experiments"
	"repro/internal/multiproc"
	"repro/internal/sweep"
)

type flags struct {
	exp      string
	procs    int
	parallel *int
	benches  string
	seeds    int
	seq      bool
	progress bool

	ledger     string
	keepLedger bool
	claimTTL   time.Duration
	poll       time.Duration

	chaosWorker int
	chaosAfter  int

	restartBudget  int
	restartBackoff time.Duration
	poisonAfter    int

	sim cliconfig.SimFlags
}

func parseFlags() *flags {
	f := &flags{}
	flag.StringVar(&f.exp, "exp", "all", "experiment: table1, table2, fig4, fig5, fig6, fig7, summary, residency, robustness, sensitivity, all")
	flag.IntVar(&f.procs, "procs", 4, "worker processes to fork over the shared ledger")
	f.parallel = cliconfig.RegisterParallel(flag.CommandLine)
	flag.StringVar(&f.benches, "benchmarks", "", "comma-separated benchmark subset (default: the experiment's own set)")
	flag.IntVar(&f.seeds, "seeds", 5, "workload seeds for -exp robustness")
	flag.BoolVar(&f.seq, "seq", false, "render artefacts sequentially (same output bytes)")
	flag.BoolVar(&f.progress, "progress", false, "report campaign progress on stderr")
	flag.StringVar(&f.ledger, "ledger", "", "shared ledger file (default: a temporary file, removed on success)")
	flag.BoolVar(&f.keepLedger, "keep-ledger", false, "keep the ledger file after the campaign")
	flag.DurationVar(&f.claimTTL, "claim-ttl", 10*time.Second, "how long a worker's claim shields a point before it may be stolen")
	flag.DurationVar(&f.poll, "poll", 25*time.Millisecond, "how often a worker re-reads the ledger while waiting on a foreign claim")
	flag.IntVar(&f.chaosWorker, "chaos-kill-worker", -1, "worker index that self-kills mid-campaign (crash-recovery drills; -1 disables; fires only at generation 0, so supervision restarts past it)")
	flag.IntVar(&f.chaosAfter, "chaos-kill-after", 3, "completed points after which the chaos worker self-kills")
	flag.IntVar(&f.restartBudget, "restart-budget", 3, "crashes per worker slot before the supervisor abandons it")
	flag.DurationVar(&f.restartBackoff, "restart-backoff", 250*time.Millisecond, "delay before the first restart of a crashed worker (doubles per consecutive crash, capped at 5s)")
	flag.IntVar(&f.poisonAfter, "poison-after", 2, "worker crashes implicating the same claimed point before it is quarantined")
	f.sim.RegisterWindows(flag.CommandLine)
	flag.Parse()
	return f
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// campaign resolves the flag surface into the artefact set, spec and
// engine-independent options — identically in the parent and every worker,
// which is what lets a worker run the same grid the parent renders.
func campaign(f *flags) ([]experiments.Artefact, experiments.Spec, experiments.Options) {
	var arts []experiments.Artefact
	if f.exp == "all" {
		arts = experiments.AllArtefacts()
	} else {
		var err error
		if arts, err = experiments.Artefacts(f.exp); err != nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", f.exp)
			os.Exit(2)
		}
	}
	spec := experiments.Spec{Seeds: f.seeds}
	if f.benches != "" {
		names, err := cliconfig.Benchmarks(f.benches, nil)
		if err != nil {
			fail(err)
		}
		spec.Benchmarks = names
	}
	o := experiments.Options{
		WarmupInstructions:  f.sim.Warmup,
		MeasureInstructions: f.sim.Measure,
		Parallelism:         *f.parallel,
	}
	return arts, spec, o
}

func openLedger(f *flags, path, worker string) *sweep.Ledger {
	led, err := sweep.OpenLedger(path,
		sweep.LedgerWorker(worker),
		sweep.LedgerClaimTTL(f.claimTTL),
		sweep.LedgerPoll(f.poll),
	)
	if err != nil {
		fail(err)
	}
	return led
}

func main() {
	f := parseFlags()
	if wid, ok := multiproc.WorkerID(); ok {
		os.Exit(runWorker(f, wid))
	}
	os.Exit(runParent(f))
}

// runWorker is the forked-child entry point: execute the full campaign
// against the shared ledger, discarding the rendered text (the parent
// renders the merged output), and exit.
func runWorker(f *flags, wid int) int {
	path := multiproc.LedgerPath()
	if path == "" {
		fmt.Fprintf(os.Stderr, "worker %d: no ledger path in environment\n", wid)
		return 1
	}
	// The generation is folded into the ledger identity so a restarted
	// worker never inherits its dead predecessor's claims — the supervisor
	// attributes those to the crash instead.
	gen := multiproc.WorkerGen()
	led := openLedger(f, path, multiproc.WorkerName(wid, gen))
	defer led.Close()

	engineOpts := []sweep.Option{
		sweep.Workers(*f.parallel),
		sweep.WithLedger(led),
		// One failing point must not stop a worker from contributing the
		// rest of its share; the parent's render pass surfaces failures.
		sweep.ContinueOnError(),
	}
	if f.chaosWorker == wid && gen == 0 && f.chaosAfter > 0 {
		// Crash-recovery drill: die abruptly (no ledger close, claims left
		// dangling) after a few completed points, like a kill -9 mid-run.
		// Generation 0 only: the supervised restart must run clean, proving
		// recovery rather than re-crashing forever.
		var runs atomic.Int64
		limit := int64(f.chaosAfter)
		engineOpts = append(engineOpts, sweep.OnProgress(func(sweep.Progress) {
			if runs.Add(1) == limit {
				fmt.Fprintf(os.Stderr, "worker %d: chaos kill after %d points\n", wid, limit)
				os.Exit(7)
			}
		}))
	} else if f.progress {
		engineOpts = append(engineOpts, sweep.OnProgress(func(p sweep.Progress) {
			fmt.Fprintf(os.Stderr, "worker %d: %d/%d points (%.1f sims/s)\n", wid, p.Done, p.Total, p.SimsPerSec)
		}))
	}
	arts, spec, o := campaign(f)
	o.Engine = sweep.New(engineOpts...)
	o.ContinueOnError = true
	if _, err := experiments.RunArtefacts(io.Discard, o, spec, arts, f.seq); err != nil {
		fmt.Fprintf(os.Stderr, "worker %d: %v\n", wid, err)
		return 1
	}
	st := o.Engine.Stats()
	fmt.Fprintf(os.Stderr, "worker %d: ran %d, ledger hits %d, steals %d\n", wid, st.Ran, st.LedgerHits, st.Steals)
	return 0
}

// runParent forks the workers, joins them, and renders the merged campaign
// from the ledger.
func runParent(f *flags) int {
	if f.procs < 1 {
		fail(fmt.Errorf("-procs %d < 1", f.procs))
	}
	path := f.ledger
	if path == "" {
		path = filepath.Join(os.TempDir(), fmt.Sprintf("vsvcampaign-%d.jsonl", os.Getpid()))
	}
	// A fresh campaign must not inherit a stale ledger's points.
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		fail(err)
	}
	if fh, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644); err != nil {
		fail(err)
	} else {
		fh.Close()
	}

	// The parent's ledger handle doubles as the supervisor's evidence
	// locker: when a worker dies, the claims it held name the suspect
	// points, and a repeat offender is quarantined so the restarted fleet
	// cannot crash-loop on it.
	led := openLedger(f, path, "parent")
	defer led.Close()

	ctx := context.Background()
	sup, err := multiproc.Supervise(ctx, multiproc.SupervisorConfig{
		Procs:  f.procs,
		Ledger: path,
		Stderr: os.Stderr,
		Policy: multiproc.RestartPolicy{
			MaxRestarts: f.restartBudget,
			Backoff:     f.restartBackoff,
			PoisonAfter: f.poisonAfter,
		},
		Suspects: func(worker string) []multiproc.Suspect {
			if err := led.Refresh(); err != nil {
				fmt.Fprintf(os.Stderr, "vsvcampaign: refreshing ledger after worker death: %v\n", err)
				return nil
			}
			var ss []multiproc.Suspect
			for _, c := range led.ClaimsBy(worker) {
				ss = append(ss, multiproc.Suspect{FP: c.FP, Key: c.Key})
			}
			return ss
		},
		Poison: func(s multiproc.Suspect, reason string) error {
			return led.Poison(s.FP, s.Key, reason)
		},
	})
	if err != nil {
		fail(err)
	}
	if sup.Restarts > 0 || len(sup.Exhausted) > 0 {
		fmt.Fprintf(os.Stderr, "vsvcampaign: supervisor: %d restarts, %d slots abandoned, %d points quarantined (campaign continues; surviving claims are re-stolen)\n",
			sup.Restarts, len(sup.Exhausted), len(sup.Poisoned))
	}
	engineOpts := []sweep.Option{sweep.Workers(*f.parallel), sweep.WithLedger(led)}
	if f.progress {
		engineOpts = append(engineOpts, sweep.OnProgress(func(p sweep.Progress) {
			fmt.Fprintf(os.Stderr, "render: %d/%d points\n", p.Done, p.Total)
		}))
	}
	arts, spec, o := campaign(f)
	o.Engine = sweep.New(engineOpts...)
	if _, err := experiments.RunArtefacts(os.Stdout, o, spec, arts, f.seq); err != nil {
		fail(err)
	}
	st := o.Engine.Stats()
	fmt.Fprintf(os.Stderr,
		"vsvcampaign: %d procs, %d points: %d from ledger, %d run by parent, %d stolen (ledger holds %d)\n",
		f.procs, st.Points, st.LedgerHits, st.Ran, st.Steals, led.Len())
	if !f.keepLedger {
		if err := os.Remove(path); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
	return 0
}

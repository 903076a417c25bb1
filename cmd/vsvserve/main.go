// Command vsvserve runs the campaign service: a long-lived HTTP JSON API
// over the sweep engine. The process stays warm across jobs, so the
// fingerprint-keyed memo cache is shared — resubmitting a campaign (or
// submitting one that overlaps an earlier job's points) costs almost
// nothing. See internal/campaign for the API surface and
// internal/campaign/apiv1 for the wire format.
//
// Examples:
//
//	vsvserve -addr :8080
//	vsvserve -addr 127.0.0.1:0 -parallel 8 -max-jobs 2 -max-points 5000
//	vsvserve -checkpoint results.jsonl        # warm-start across restarts
//	vsvserve -journal jobs.jsonl              # accepted jobs survive crashes: replayed and re-dispatched on boot
//
//	curl -s localhost:8080/v1/healthz
//	curl -s -X POST localhost:8080/v1/jobs -d '{"v":1,"artefacts":["fig4"]}'
//	curl -s localhost:8080/v1/jobs/j000001/artefacts?format=text
//
// The resolved listen URL is printed on stderr ("vsvserve: listening on
// http://..."), so scripts can bind to port 0 and scrape the real address.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/campaign"
	"repro/internal/cliconfig"
	"repro/internal/experiments"
	"repro/internal/sweep"
)

func main() {
	var serveFlags cliconfig.ServeFlags
	var (
		parallel   = cliconfig.RegisterParallel(flag.CommandLine)
		warmup     = flag.Uint64("warmup", 0, "default warm-up instructions per run (0 = library default; jobs may override)")
		measure    = flag.Uint64("instructions", 0, "default measured instructions per run (0 = library default; jobs may override)")
		checkpoint = flag.String("checkpoint", "", "persist completed points to this JSONL file and warm-start from it on restart")
		runTimeout = flag.Duration("run-timeout", 0, "per-simulation wall-clock deadline (0 disables)")
		retries    = flag.Int("retries", 0, "extra attempts for transiently-failed points")
	)
	serveFlags.RegisterServe(flag.CommandLine)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	engineOpts := []sweep.Option{sweep.Workers(*parallel)}
	if serveFlags.CacheEntries > 0 {
		engineOpts = append(engineOpts, sweep.CacheBound(serveFlags.CacheEntries))
	}
	if *runTimeout > 0 {
		engineOpts = append(engineOpts, sweep.RunTimeout(*runTimeout))
	}
	if *retries > 0 {
		engineOpts = append(engineOpts, sweep.Retries(*retries))
	}
	if *checkpoint != "" {
		cp, err := sweep.OpenCheckpoint(*checkpoint)
		if err != nil {
			fail(err)
		}
		defer cp.Close()
		if cp.Loaded() > 0 {
			fmt.Fprintf(os.Stderr, "vsvserve: warm start: %d checkpointed points loaded from %s\n",
				cp.Loaded(), *checkpoint)
		}
		engineOpts = append(engineOpts, sweep.WithCheckpoint(cp))
	}

	var journal *campaign.Journal
	if serveFlags.Journal != "" {
		var err error
		journal, err = campaign.OpenJournal(serveFlags.Journal)
		if err != nil {
			fail(err)
		}
		defer journal.Close()
		if recs := journal.Recovered(); len(recs) > 0 {
			resumed := 0
			for _, rec := range recs {
				if !rec.State.Terminal() {
					resumed++
				}
			}
			fmt.Fprintf(os.Stderr, "vsvserve: journal replay: %d jobs recovered from %s (%d re-dispatched)\n",
				len(recs), serveFlags.Journal, resumed)
		}
	}
	svc := campaign.New(campaign.Config{
		Engine: sweep.New(engineOpts...),
		Options: experiments.Options{
			WarmupInstructions:  *warmup,
			MeasureInstructions: *measure,
			Parallelism:         *parallel,
		},
		MaxQueue:        serveFlags.MaxQueue,
		MaxConcurrent:   serveFlags.MaxJobs,
		MaxPointsPerJob: serveFlags.MaxPoints,
		MaxDoneJobs:     serveFlags.MaxDoneJobs,
		Journal:         journal,
	})
	// Close order matters: the server interrupts in-flight jobs and flushes
	// their journal records, then the deferred journal Close fsyncs.
	defer svc.Close()

	ln, err := net.Listen("tcp", serveFlags.Addr)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "vsvserve: listening on http://%s\n", ln.Addr())

	srv := &http.Server{Handler: svc}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "vsvserve: %v: shutting down\n", sig)
		svc.Close() // cancel jobs first so event streams terminate
		if err := srv.Shutdown(context.Background()); err != nil {
			fail(err)
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fail(err)
		}
	}
}

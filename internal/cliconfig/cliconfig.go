// Package cliconfig centralizes the flag surface shared by the command-line
// binaries (vsvsim, vsvtrace, experiments): window sizing, workload seeding,
// VSV policy selection, Time-Keeping, parallelism and benchmark-subset
// resolution. The three binaries register the same flag names with the same
// defaults and resolve them through the same code, so their semantics
// cannot drift.
package cliconfig

import (
	"flag"
	"fmt"
	"runtime"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// SimFlags holds the shared per-run simulation flags.
type SimFlags struct {
	// Warmup and Measure size each run's instruction windows.
	Warmup  uint64
	Measure uint64
	// Seed selects the workload's pseudo-random streams (0 = canonical).
	Seed uint64

	// VSV names the controller policy (off, fsm, adaptive, nofsm, firstr,
	// lastr); the thresholds and window parameterize the fsm policy.
	VSV           string
	DownThreshold int
	UpThreshold   int
	Window        int
	// TK enables Time-Keeping prefetching.
	TK bool
}

// RegisterWindows registers the window-sizing and seeding flags.
func (f *SimFlags) RegisterWindows(fs *flag.FlagSet) {
	fs.Uint64Var(&f.Warmup, "warmup", 60_000, "warm-up instructions per run")
	fs.Uint64Var(&f.Measure, "instructions", 300_000, "measured instructions per run")
	fs.Uint64Var(&f.Seed, "seed", 0, "workload seed (0 = canonical stream)")
}

// RegisterVSV registers the controller-policy flags.
func (f *SimFlags) RegisterVSV(fs *flag.FlagSet) {
	fs.StringVar(&f.VSV, "vsv", "off", "VSV policy: off, fsm, adaptive, nofsm, firstr, lastr")
	fs.IntVar(&f.DownThreshold, "down-threshold", 3, "down-FSM threshold (0 = immediate)")
	fs.IntVar(&f.UpThreshold, "up-threshold", 3, "up-FSM threshold")
	fs.IntVar(&f.Window, "window", 10, "FSM monitoring window (cycles)")
	fs.BoolVar(&f.TK, "tk", false, "enable Time-Keeping prefetching")
}

// Policy resolves the -vsv flag family into a controller policy. The
// boolean reports whether VSV is enabled at all.
func (f *SimFlags) Policy() (core.Policy, bool, error) {
	return PolicyByName(f.VSV, f.DownThreshold, f.UpThreshold, f.Window)
}

// PolicyByName builds the named controller policy, parameterized by the
// fsm thresholds and monitoring window.
func PolicyByName(name string, downTh, upTh, window int) (core.Policy, bool, error) {
	switch strings.ToLower(name) {
	case "off", "":
		return core.Policy{}, false, nil
	case "fsm":
		p := core.PolicyFSM()
		p.DownThreshold = downTh
		if downTh == 0 {
			p.UseDownFSM = false
		}
		p.UpThreshold = upTh
		p.DownWindow, p.UpWindow = window, window
		return p, true, nil
	case "adaptive":
		p := core.PolicyFSM()
		p.Adaptive = core.DefaultAdaptiveConfig()
		return p, true, nil
	case "nofsm":
		return core.PolicyNoFSM(), true, nil
	case "firstr":
		return core.PolicyFirstR(), true, nil
	case "lastr":
		return core.PolicyLastR(), true, nil
	default:
		return core.Policy{}, false, fmt.Errorf("unknown -vsv policy %q", name)
	}
}

// Options translates the flags into sim options (windows, seed, VSV policy,
// Time-Keeping), to be applied on top of a base configuration.
func (f *SimFlags) Options() ([]sim.Option, error) {
	opts := []sim.Option{
		sim.WithWindows(f.Warmup, f.Measure),
		sim.WithSeed(f.Seed),
	}
	policy, on, err := f.Policy()
	if err != nil {
		return nil, err
	}
	if on {
		opts = append(opts, sim.WithVSV(policy))
	}
	if f.TK {
		opts = append(opts, sim.WithTimeKeeping())
	}
	return opts, nil
}

// ServeFlags holds the campaign service's flag surface (cmd/vsvserve).
type ServeFlags struct {
	// Addr is the listen address; ":0" picks a free port (printed on
	// stderr, for smoke tests and scripts).
	Addr string
	// MaxQueue, MaxJobs and MaxPoints are the admission-control limits:
	// queued-job bound, admitted-job slots, per-job run budget
	// (0 = unlimited). Concurrent simulations are bounded separately, across
	// all admitted jobs, by -parallel.
	MaxQueue  int
	MaxJobs   int
	MaxPoints int
	// CacheEntries bounds the engine's memo cache (entries; 0 = unbounded),
	// with deterministic oldest-first eviction.
	CacheEntries int
	// MaxDoneJobs bounds retained terminal job records (0 = unlimited),
	// oldest evicted first.
	MaxDoneJobs int
	// Journal is the durable job-journal path (empty disables): accepted
	// jobs are fsynced to it before the 202 and replayed on restart, so a
	// crashed or restarted server re-dispatches interrupted jobs.
	Journal string
}

// RegisterServe registers the campaign-service flags.
func (f *ServeFlags) RegisterServe(fs *flag.FlagSet) {
	fs.StringVar(&f.Addr, "addr", "127.0.0.1:8080", "listen address (host:port; :0 picks a free port)")
	fs.IntVar(&f.MaxQueue, "max-queue", 16, "jobs queued but not yet running before submissions get 429")
	fs.IntVar(&f.MaxJobs, "max-jobs", 2, "jobs admitted to run at once (admission only; -parallel bounds simulations across all of them)")
	fs.IntVar(&f.MaxPoints, "max-points", 0, "per-job run budget in engine submissions (0 = unlimited)")
	fs.IntVar(&f.CacheEntries, "cache-entries", 0, "memo-cache bound in entries, oldest evicted first (0 = unbounded)")
	fs.IntVar(&f.MaxDoneJobs, "max-done-jobs", 0, "finished job records retained before oldest are evicted (0 = unlimited)")
	fs.StringVar(&f.Journal, "journal", "", "durable job journal (JSONL): accepted jobs survive crashes and are re-dispatched on restart (empty disables)")
}

// RegisterParallel registers the worker-count flag, defaulting to all
// available CPUs.
func RegisterParallel(fs *flag.FlagSet) *int {
	return fs.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulations")
}

// Benchmarks resolves a comma-separated benchmark list, validating every
// name; an empty value returns def.
func Benchmarks(csv string, def []string) ([]string, error) {
	if csv == "" {
		return def, nil
	}
	names := strings.Split(csv, ",")
	for i, n := range names {
		names[i] = strings.TrimSpace(n)
		if _, err := workload.ByName(names[i]); err != nil {
			return nil, err
		}
	}
	return names, nil
}

// Profile resolves one benchmark name to its workload profile.
func Profile(name string) (workload.Profile, error) {
	return workload.ByName(name)
}

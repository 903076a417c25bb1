// Command perfbench is the repository's whole-system benchmark. One
// invocation runs one named workload for a wall-clock budget, checks the
// output of every operation, and prints one JSON result as the last line of
// stdout: the end-to-end metrics with -trace 0, the per-layer metrics with
// -trace 1. README.md beside this file gives each workload's reason and
// which end-to-end metric each layer metric should move.
//
// Run it from the repository root through run.sh, which builds it and the
// vsvcampaign binary from the checkout's sources:
//
//	bash _perfbench/run.sh --workload tickloop --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Golden-campaign windows, as scripts/check_golden.sh runs them.
const (
	goldenWarmup  = 5_000
	goldenMeasure = 20_000
)

// setupSamples is how many fresh processes time the workload's set-up; the
// reported set-up time is their median.
const setupSamples = 5

var workloadNames = []string{"paper-short", "tickloop", "service", "campaign-2proc"}

type config struct {
	workload  string
	seed      uint64
	seconds   int
	trace     int
	root, out string
}

// env is what every workload shares: where it may write, the golden digest
// artefacts are checked against, and the host's parallelism.
type env struct {
	config
	nproc  int
	golden string // testdata/golden_short.sha256 of the tree under test
	tmp    string // scratch directory, removed at exit
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var c config
	fs.StringVar(&c.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&c.seed, "seed", 1, "workload seed (tickloop's workload streams, service's raw-point seeds)")
	fs.IntVar(&c.seconds, "seconds", 10, "measurement budget in seconds")
	fs.IntVar(&c.trace, "trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	fs.StringVar(&c.root, "root", ".", "repository root")
	fs.StringVar(&c.out, "out", ".bench_build", "directory for built binaries, scratch files, spans and profiles")
	setupOnly := fs.Bool("setup-only", false, "time the workload's set-up once in this process, print it and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if c.seconds < 1 || (c.trace != 0 && c.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want -seconds >= 1 and -trace 0 or 1")
		return 2
	}
	e, err := newEnv(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer e.close()
	if _, err := newWorkload(e, c.workload); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	switch {
	case *setupOnly:
		err = e.setupOnly()
	case c.trace == 1:
		err = e.tracedRun()
	default:
		err = e.plainRun()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func newEnv(c config) (*env, error) {
	var err error
	if c.root, err = filepath.Abs(c.root); err != nil {
		return nil, err
	}
	if c.out, err = filepath.Abs(c.out); err != nil {
		return nil, err
	}
	b, err := os.ReadFile(filepath.Join(c.root, "testdata", "golden_short.sha256"))
	if err != nil {
		return nil, fmt.Errorf("reading the golden digest (run from the repository root): %w", err)
	}
	golden := strings.TrimSpace(string(b))
	if len(golden) != 64 {
		return nil, fmt.Errorf("golden digest %q is not a SHA-256", golden)
	}
	if err := os.MkdirAll(filepath.Join(c.out, "tmp"), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(c.out, "tmp"), "run-")
	if err != nil {
		return nil, err
	}
	return &env{config: c, nproc: runtime.NumCPU(), golden: golden, tmp: tmp}, nil
}

func (e *env) close() { _ = os.RemoveAll(e.tmp) }

// checkGolden compares a campaign's artefact bytes with the golden digest.
func (e *env) checkGolden(out []byte) error {
	sum := sha256.Sum256(out)
	if got := hex.EncodeToString(sum[:]); got != e.golden {
		return fmt.Errorf("artefact digest %s, want %s", got, e.golden)
	}
	return nil
}

func newWorkload(e *env, name string) (benchWorkload, error) {
	switch name {
	case "paper-short":
		return &paperShort{e: e}, nil
	case "tickloop":
		return newTickloop(e), nil
	case "service":
		return &service{e: e}, nil
	case "campaign-2proc":
		return &campaign2{e: e}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// setupOnly is the child side of the set-up probe.
func (e *env) setupOnly() error {
	w, _ := newWorkload(e, e.workload)
	t0 := time.Now()
	err := w.setup()
	d := time.Since(t0).Seconds()
	w.close()
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(map[string]float64{"setup_s": d})
}

// setupProbes times the workload's set-up in n fresh processes, one after
// another, so each pays what a first invocation pays.
func (e *env) setupProbes(n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-setup-only", "-workload", e.workload,
			"-seed", strconv.FormatUint(e.seed, 10), "-root", e.root, "-out", e.out)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		var r struct {
			SetupS float64 `json:"setup_s"`
		}
		if err := json.Unmarshal(lastLine(b), &r); err != nil {
			return nil, fmt.Errorf("set-up probe output: %w", err)
		}
		out = append(out, r.SetupS)
	}
	return out, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimSpace(b)
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// canaryEvery spaces the host canary so it costs about one percent of a run.
const canaryEvery = 250 * time.Millisecond

// rssWindow is the window of each resident-set peak reading.
const rssWindow = 500 * time.Millisecond

// plainRun is the untraced run that gives the end-to-end metrics.
func (e *env) plainRun() error {
	setups, err := e.setupProbes(setupSamples - 1)
	if err != nil {
		return err
	}
	w, _ := newWorkload(e, e.workload)
	defer w.close()
	t0 := time.Now()
	if err := w.setup(); err != nil {
		return fmt.Errorf("%s set-up: %w", e.workload, err)
	}
	setups = append(setups, time.Since(t0).Seconds())

	host := newHostInfo()
	c := &canary{every: canaryEvery}
	steal := readSteal()
	rss := sampleRSS(rssWindow)
	out := measure(w, e.workload, time.Duration(e.seconds)*time.Second, nil, c)
	rssPeaks := rss.finish()
	host.StealFrac = steal.since()
	host.CanaryS = median(c.samples)
	vfail, err := w.verify()
	if err != nil {
		return err
	}
	if out.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failed op:", out.firstErr)
	}
	sh := w.shape()
	values := map[string]float64{
		"setup_s":         median(setups),
		"op_p50_s":        opP50(out.samples, sh.kinds, all),
		"sim_minst_per_s": simRate(sh, out.samples),
		"rss_peak_mb":     (median(rssPeaks) + w.childRSS()) / 1e6,
	}
	info, _ := json.Marshal(map[string]any{"workload": e.workload, "seed": e.seed, "host": host,
		"ops": len(out.samples), "setup_samples_s": setups})
	fmt.Printf("%s\n", info)
	return emit(os.Stdout, len(out.samples), out.failed+vfail, values, endToEnd)
}

// tracedRun gives the per-layer metrics. Every workload runs traced — the
// named one for the whole budget, the others for their minimum op counts —
// so every layer's metrics come from the workload that exercises it, under
// the same host conditions; then the layer probes run, and the spans are
// written out.
func (e *env) tracedRun() error {
	tr := newTracer()
	c := &canary{every: canaryEvery}
	steal := readSteal()
	host := newHostInfo()
	values := map[string]float64{}
	p50 := map[string]float64{}
	attempted, failed := 0, 0
	if err := os.MkdirAll(filepath.Join(e.out, "trace"), 0o755); err != nil {
		return err
	}
	tag := fmt.Sprintf("%s-seed%d", e.workload, e.seed)
	profiles := map[string]string{}
	// paper-short goes first, so its set-up is the process's cold campaign.
	for _, name := range workloadNames {
		w, _ := newWorkload(e, name)
		if err := w.setup(); err != nil {
			w.close()
			return fmt.Errorf("%s set-up: %w", name, err)
		}
		var budget time.Duration
		if name == e.workload {
			budget = time.Duration(e.seconds) * time.Second
		}
		prof := ""
		if slices.Contains(cpuProfiled, name) {
			prof = filepath.Join(e.out, "trace", tag+"."+name+".cpu.pprof")
			profiles[name] = prof
		}
		out, err := profiled(prof, func() outcome { return measure(w, name, budget, tr, c) })
		if err != nil {
			w.close()
			return err
		}
		vfail, err := w.verify()
		if err != nil {
			w.close()
			return err
		}
		if out.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: first failed op: %v\n", name, out.firstErr)
		}
		attempted += len(out.samples)
		failed += out.failed + vfail
		sh := w.shape()
		p50[name] = opP50(out.samples, sh.kinds, all)
		if name == e.workload {
			values["trace.overhead_frac"] = opP50(out.samples, sh.kinds, tracedOnly)/opP50(out.samples, sh.kinds, untraced) - 1
		}
		err = w.layers(tr, out, values)
		w.close()
		if err != nil {
			return fmt.Errorf("%s layers: %w", name, err)
		}
	}
	values["multiproc.speedup_vs_inproc"] = p50["paper-short"] / p50["campaign-2proc"]
	for _, name := range cpuProfiled {
		shares, err := cpuShares(profiles[name], cpuPackages)
		if err != nil {
			return err
		}
		for p, v := range shares {
			values["cpu_share."+name+"."+p] = v
		}
	}
	host.StealFrac = steal.since()
	host.CanaryS = median(c.samples)
	values["host.canary_s"] = host.CanaryS
	values["host.steal_frac"] = host.StealFrac
	values["host.nproc"] = float64(host.NProc)
	values["host.gomaxprocs"] = float64(host.GOMAXPROCS)

	if err := tr.write(filepath.Join(e.out, "trace", tag+".spans.jsonl"), os.Stderr); err != nil {
		return err
	}
	info, _ := json.Marshal(map[string]any{"workload": e.workload, "seed": e.seed, "host": host, "ops": attempted})
	fmt.Printf("%s\n", info)
	return emit(os.Stdout, attempted, failed, values, perLayer())
}

// profiled runs f under a CPU profile written to path ("" runs it bare).
func profiled(path string, f func() outcome) (outcome, error) {
	if path == "" {
		return f(), nil
	}
	pf, err := os.Create(path)
	if err != nil {
		return outcome{}, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		_ = pf.Close()
		return outcome{}, err
	}
	out := f()
	pprof.StopCPUProfile()
	return out, pf.Close()
}

// cpuShares reduces a CPU profile to each package's share of flat CPU time
// with `go tool pprof -top`; functions outside pkgs count as "other".
func cpuShares(profile string, pkgs []string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", profile)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", profile, err)
	}
	known := map[string]bool{}
	for _, p := range pkgs {
		known[p] = true
	}
	flat := map[string]float64{}
	var total float64
	inTable := false
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "flat" && f[1] == "flat%" {
			inTable = true
			continue
		}
		if !inTable || len(f) < 6 {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", sc.Text(), err)
		}
		flat[bucket(strings.Join(f[5:], " "), known)] += d.Seconds()
		total += d.Seconds()
	}
	if total == 0 {
		return nil, errors.New("empty CPU profile " + profile)
	}
	out := map[string]float64{}
	for _, p := range pkgs {
		out[p] = flat[p] / total
	}
	return out, nil
}

// bucket maps a profiled function to its reported package: a repository
// package under internal/ by its first path element, the Go runtime as
// "runtime", anything else as "other".
func bucket(fn string, known map[string]bool) string {
	slash := strings.LastIndexByte(fn, '/')
	pkg := fn
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		first, _, _ := strings.Cut(rest, "/")
		if known[first] {
			return first
		}
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

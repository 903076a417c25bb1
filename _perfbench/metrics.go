package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
)

// metricSpec declares one reported metric by the name and unit
// BENCHMARK.json gives it.
type metricSpec struct {
	name, unit string
}

// mrClasses are tickloop's workload classes by paper L2 miss rate.
var mrClasses = []string{"high", "mid", "low"}

// cpuProfiled are the workloads whose traced segment is CPU-profiled;
// cpuPackages are the packages whose flat CPU share is reported for each.
// Everything else, the sweep engine's own thin layer included, is summed
// into "other".
var (
	cpuProfiled = []string{"paper-short", "tickloop"}
	cpuPackages = []string{"sim", "pipeline", "core", "power", "cache", "bus", "mem", "prefetch", "workload", "runtime", "other"}
)

// endToEnd are the metrics of an untraced run: what a user of the
// campaign tools sees, reported by every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"op_p50_s", "s"},
	{"sim_minst_per_s", "Minst/s"},
	{"rss_peak_mb", "MB"},
}

// perLayer returns the metrics of a traced run, one group per layer.
func perLayer() []metricSpec {
	var out []metricSpec
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricSpec{n, unit})
		}
	}
	for _, c := range mrClasses {
		add("Minst/s", "sim.minst_per_s."+c)
		add("ns", "sim.host_ns_per_tick."+c)
		add("count", "sim.ticks."+c)
	}
	add("s", "sim.reset_s", "sim.new_s")
	add("count", "sim.allocs_per_run")
	add("count", "sweep.points", "sweep.ran", "sweep.cache_hits", "sweep.fresh_builds")
	add("ratio", "sweep.reuse_rate", "sweep.sim_concurrency", "sweep.scaling_eff.cache_on", "sweep.scaling_eff.cache_off")
	add("s", "sweep.warm_op_s", "sweep.fingerprint_s")
	add("pts", "experiments.headline_err_pts")
	add("s", "campaign.op_p90_s", "campaign.submit_s", "campaign.stream_s", "campaign.queue_wait_s",
		"campaign.exec_s", "campaign.fetch_s", "campaign.journal_append_s")
	add("ratio", "campaign.rejected_frac")
	add("s", "ledger.open_s", "ledger.claim_s", "ledger.complete_s", "ledger.refresh_s")
	add("ratio", "ledger.useful_frac", "multiproc.speedup_vs_inproc")
	for _, w := range cpuProfiled {
		for _, p := range cpuPackages {
			add("ratio", "cpu_share."+w+"."+p)
		}
	}
	add("s", "host.canary_s")
	add("ratio", "host.steal_frac")
	add("count", "host.nproc", "host.gomaxprocs")
	add("ratio", "trace.overhead_frac")
	return out
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkSpecs rejects metric names or units outside the result format's
// alphabet and duplicate names.
func checkSpecs(specs []metricSpec) error {
	seen := map[string]bool{}
	for _, s := range specs {
		if !nameRE.MatchString(s.name) {
			return fmt.Errorf("metric name %q: want a letter or digit, then up to 63 of [A-Za-z0-9_.-]", s.name)
		}
		if !unitRE.MatchString(s.unit) {
			return fmt.Errorf("metric %s: unit %q: want 1 to 16 of [A-Za-z0-9_/%%.-]", s.name, s.unit)
		}
		if seen[s.name] {
			return fmt.Errorf("metric %s declared twice", s.name)
		}
		seen[s.name] = true
	}
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// emit writes the run's result as one JSON line. Every declared metric must
// have a finite measured value and no undeclared one may appear, so a
// result either carries the whole declared set or is not printed at all.
func emit(w io.Writer, attempted, failed int, values map[string]float64, specs []metricSpec) error {
	if err := checkSpecs(specs); err != nil {
		return err
	}
	if attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s measured %v", s.name, v)
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	if len(res.Metrics) != len(values) {
		var extra []string
		for n := range values {
			if _, ok := res.Metrics[n]; !ok {
				extra = append(extra, n)
			}
		}
		sort.Strings(extra)
		return fmt.Errorf("undeclared metrics measured: %v", extra)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics; NaN when xs is empty. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// minBeyond is how many samples must lie above a tail percentile before it
// is reported: with fewer, the "percentile" is one or two outliers.
const minBeyond = 10

// tailQuantile returns the q-quantile of xs and whether at least minBeyond
// samples lie strictly above it.
func tailQuantile(xs []float64, q float64) (float64, bool) {
	v := quantile(xs, q)
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	return v, beyond >= minBeyond
}

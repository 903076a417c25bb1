package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// Full-scale windows: the paper-scale runs of cmd/experiments' defaults.
const (
	fullWarmup  = 60_000
	fullMeasure = 300_000
)

// tickClasses are two benchmarks per paper MR class. High-MR runs spend
// most cycles stalled, which fast-forward skips; low-MR runs step every
// tick. A gain for one class that costs the other shows up per class.
var tickClasses = []struct {
	class   string
	benches [2]string
}{
	{"high", [2]string{"mcf", "applu"}},
	{"mid", [2]string{"vpr", "mgrid"}},
	{"low", [2]string{"gcc", "eon"}},
}

// tickPolicies are the three machines every benchmark runs on: baseline,
// VSV with the FSMs, and VSV with the FSMs plus Time-Keeping.
var tickPolicies = []string{"base", "fsm", "fsm-tk"}

type tickPair struct {
	bench, class string
	policy       int // index into tickPolicies
	seed         uint64
}

func (p tickPair) options() []sim.Option {
	opts := []sim.Option{sim.WithWindows(fullWarmup, fullMeasure), sim.WithSeed(p.seed)}
	if p.policy >= 1 {
		opts = append(opts, sim.WithVSV(core.PolicyFSM()))
	}
	if p.policy == 2 {
		opts = append(opts, sim.WithTimeKeeping())
	}
	return opts
}

// tickloop is the simulator alone: one goroutine recycling one machine
// (ResetBench + Run) through the (benchmark, policy) pairs in a fixed
// order, at full-scale windows. The seed picks each pair's workload
// stream; each pair's results must repeat bit for bit.
type tickloop struct {
	base
	e     *env
	pairs []tickPair
	m     *sim.Machine
	want  []string // each pair's reference Results, printed with %+v
	ticks []int64  // each pair's measured-window ticks
	newS  []float64
	// allocs are heap allocations per traced op (reset + run).
	allocs []float64
}

func newTickloop(e *env) *tickloop {
	w := &tickloop{e: e}
	for _, c := range tickClasses {
		for _, b := range c.benches {
			for p := range tickPolicies {
				w.pairs = append(w.pairs, tickPair{bench: b, class: c.class, policy: p, seed: mix(e.seed, uint64(len(w.pairs)))})
			}
		}
	}
	return w
}

// mix derives a nonzero workload seed from the run seed and an index
// (splitmix64 finalizer); seed 0 would select the canonical stream.
func mix(seed, i uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + i + 0x632BE59BD9B4E019
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// setup builds the machine and runs every pair once: those runs are the
// references the timed ops must reproduce.
func (w *tickloop) setup() error {
	t0 := time.Now()
	m, err := sim.NewBench(w.pairs[0].bench, w.pairs[0].options()...)
	if err != nil {
		return err
	}
	w.newS = append(w.newS, time.Since(t0).Seconds())
	w.m = m
	for k, p := range w.pairs {
		if k > 0 {
			if err := m.ResetBench(p.bench, p.options()...); err != nil {
				return err
			}
		}
		res := m.Run(p.bench)
		w.want = append(w.want, fmt.Sprintf("%+v", res))
		w.ticks = append(w.ticks, res.Ticks)
	}
	return nil
}

func (w *tickloop) shape() shape {
	return shape{kinds: len(w.pairs), inst: fullWarmup + fullMeasure, minOps: 2 * len(w.pairs)}
}

func (w *tickloop) op(i int, sc scope) (time.Duration, error) {
	k := i % len(w.pairs)
	p := w.pairs[k]
	var m0, m1 runtime.MemStats
	if sc.traced() {
		runtime.ReadMemStats(&m0)
	}
	t0 := time.Now()
	sp := sc.span("sim.Machine.ResetBench")
	err := w.m.ResetBench(p.bench, p.options()...)
	sp.end()
	if err != nil {
		return time.Since(t0), err
	}
	sp = sc.span("sim.Machine.Run")
	res := w.m.Run(p.bench)
	sp.end()
	d := time.Since(t0)
	if sc.traced() {
		runtime.ReadMemStats(&m1)
		w.allocs = append(w.allocs, float64(m1.Mallocs-m0.Mallocs))
	}
	if got := fmt.Sprintf("%+v", res); got != w.want[k] {
		return d, fmt.Errorf("%s/%s seed %d: results differ from the reference run", p.bench, tickPolicies[p.policy], p.seed)
	}
	return d, nil
}

func (w *tickloop) layers(tr *tracer, out outcome, v map[string]float64) error {
	ns := map[string]float64{}
	inst := map[string]float64{}
	ticks := map[string]float64{}
	for _, s := range tr.named("sim.Machine.Run") {
		k := int(s.Op) % len(w.pairs)
		c := w.pairs[k].class
		ns[c] += float64(s.End - s.Start)
		inst[c] += fullWarmup + fullMeasure
		ticks[c] += float64(w.ticks[k])
	}
	for _, c := range mrClasses {
		if ns[c] == 0 {
			return fmt.Errorf("no traced run of class %s", c)
		}
		v["sim.minst_per_s."+c] = inst[c] / ns[c] * 1e3
		v["sim.host_ns_per_tick."+c] = ns[c] / ticks[c]
		var cycle int64
		for k, p := range w.pairs {
			if p.class == c {
				cycle += w.ticks[k]
			}
		}
		v["sim.ticks."+c] = float64(cycle)
	}
	v["sim.reset_s"] = median(tr.seconds("sim.Machine.ResetBench"))
	v["sim.allocs_per_run"] = mean(w.allocs)
	for i := 0; i < 2; i++ {
		p := w.pairs[i]
		s, err := probe(tr, "sim.NewBench", func(scope) error {
			_, err := sim.NewBench(p.bench, p.options()...)
			return err
		})
		if err != nil {
			return err
		}
		w.newS = append(w.newS, s)
	}
	v["sim.new_s"] = median(w.newS)
	return nil
}

func (w *tickloop) close() {}

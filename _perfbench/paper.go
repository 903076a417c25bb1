package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// paperShort is the golden campaign: every artefact `cmd/experiments -exp
// all` renders, at the 5 000/20 000-instruction windows, on a fresh engine
// with one worker per CPU per op, its bytes hashed against the tree's
// golden digest. Set-up is the process's first, cold campaign.
type paperShort struct {
	base
	e    *env
	cold sweep.Stats // the set-up campaign's counters
	// Traced ops' engine counters and wall times; warm is the last traced
	// op's engine, whose memo cache holds the whole campaign.
	obs  []paperObs
	warm *sweep.Engine
}

type paperObs struct {
	st   sweep.Stats
	wall time.Duration
}

func (w *paperShort) options(eng *sweep.Engine) experiments.Options {
	return experiments.Options{
		WarmupInstructions:  goldenWarmup,
		MeasureInstructions: goldenMeasure,
		Parallelism:         w.e.nproc,
		Engine:              eng,
	}
}

// campaign renders the whole campaign on eng and checks its bytes.
func (w *paperShort) campaign(eng *sweep.Engine, sc scope) error {
	var buf bytes.Buffer
	sp := sc.span("experiments.RunArtefacts")
	_, err := experiments.RunArtefacts(&buf, w.options(eng), experiments.Spec{}, experiments.AllArtefacts(), false)
	sp.end()
	if err != nil {
		return err
	}
	return w.e.checkGolden(buf.Bytes())
}

func (w *paperShort) setup() error {
	eng := sweep.New(sweep.Workers(w.e.nproc))
	if err := w.campaign(eng, scope{}); err != nil {
		return err
	}
	w.cold = eng.Stats()
	return nil
}

func (w *paperShort) shape() shape {
	return shape{kinds: 1, inst: float64(w.cold.Ran) * (goldenWarmup + goldenMeasure), minOps: 4}
}

func (w *paperShort) op(_ int, sc scope) (time.Duration, error) {
	eng := sweep.New(sweep.Workers(w.e.nproc))
	t0 := time.Now()
	err := w.campaign(eng, sc)
	d := time.Since(t0)
	if err == nil && sc.traced() {
		w.obs = append(w.obs, paperObs{eng.Stats(), d})
		w.warm = eng
	}
	return d, err
}

func (w *paperShort) layers(tr *tracer, out outcome, v map[string]float64) error {
	if len(w.obs) == 0 {
		return fmt.Errorf("no traced op")
	}
	last := w.obs[len(w.obs)-1].st
	v["sweep.points"] = float64(last.Points)
	v["sweep.ran"] = float64(last.Ran)
	v["sweep.cache_hits"] = float64(last.CacheHits)
	v["sweep.fresh_builds"] = float64(w.cold.FreshBuilds)
	var reuse, conc []float64
	for _, o := range w.obs {
		reuse = append(reuse, o.st.ReuseRate())
		conc = append(conc, o.st.SimTime.Seconds()/o.wall.Seconds())
	}
	v["sweep.reuse_rate"] = median(reuse)
	v["sweep.sim_concurrency"] = median(conc)

	// The same campaign on the warm engine is all memo hits: it times
	// planning, fingerprinting, cache lookup and rendering.
	var warm []float64
	for i := 0; i < 3; i++ {
		s, err := probe(tr, "probe.warm_campaign", func(sc scope) error { return w.campaign(w.warm, sc) })
		if err != nil {
			return err
		}
		warm = append(warm, s)
	}
	v["sweep.warm_op_s"] = median(warm)

	fp, err := fingerprintSeconds(tr)
	if err != nil {
		return err
	}
	v["sweep.fingerprint_s"] = fp

	// Worker scaling: 1 vs nproc workers, memo cache on and off, against
	// the nproc-worker, cache-on median of the segment's ops.
	n := float64(w.e.nproc)
	timeCampaign := func(name string, opts ...sweep.Option) (float64, error) {
		return probe(tr, name, func(sc scope) error { return w.campaign(sweep.New(opts...), sc) })
	}
	t1on, err := timeCampaign("probe.campaign.w1", sweep.Workers(1))
	if err != nil {
		return err
	}
	t1off, err := timeCampaign("probe.campaign.w1.nocache", sweep.Workers(1), sweep.WithoutCache())
	if err != nil {
		return err
	}
	tnoff, err := timeCampaign("probe.campaign.wn.nocache", sweep.Workers(w.e.nproc), sweep.WithoutCache())
	if err != nil {
		return err
	}
	v["sweep.scaling_eff.cache_on"] = t1on / (n * opP50(out.samples, 1, all))
	v["sweep.scaling_eff.cache_off"] = t1off / (n * tnoff)

	// Figure 7 on the warm engine is cache hits only.
	rows, err := experiments.Figure7(w.options(w.warm), workload.Names())
	if err != nil {
		return err
	}
	got, want := experiments.ComputeSummary(rows), experiments.PaperSummary()
	v["experiments.headline_err_pts"] = (math.Abs(got.HighMRSavePct-want.HighMRSavePct) +
		math.Abs(got.HighMRDegPct-want.HighMRDegPct) +
		math.Abs(got.AllSavePct-want.AllSavePct) +
		math.Abs(got.AllDegPct-want.AllDegPct)) / 4
	return nil
}

// fingerprintSeconds returns the median time of one Point.Fingerprint over
// Figure 7's grid (every benchmark under its four configurations).
func fingerprintSeconds(tr *tracer) (float64, error) {
	b := experiments.BenchConfig(experiments.Options{WarmupInstructions: goldenWarmup, MeasureInstructions: goldenMeasure})
	cfgs := []sim.Config{b, b.WithTimeKeeping(), b.WithVSV(core.PolicyFSM()), b.WithTimeKeeping().WithVSV(core.PolicyFSM())}
	var secs []float64
	_, err := probe(tr, "probe.fingerprints", func(sc scope) error {
		for _, name := range workload.Names() {
			for _, c := range cfgs {
				p := sweep.Point{Benchmark: name, Config: c}
				t0 := time.Now()
				if _, err := p.Fingerprint(); err != nil {
					return err
				}
				secs = append(secs, time.Since(t0).Seconds())
			}
		}
		return nil
	})
	return median(secs), err
}

func (w *paperShort) close() {}

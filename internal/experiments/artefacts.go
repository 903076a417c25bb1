package experiments

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// This file declares the paper's evaluation artefacts — each table, figure
// and derived summary — as data, so a driver (cmd/experiments, the bench
// harness) can select, parameterize and execute them uniformly. Running a
// set of artefacts through RunArtefacts executes them concurrently against
// one shared sweep engine: points repeated across artefacts (every figure
// re-uses the per-benchmark baselines) are simulated exactly once, thanks
// to the engine's memo cache and in-flight deduplication, and independent
// figures fill the engine's worker slots instead of queuing behind each
// other.

// Spec parameterizes a campaign. The zero value selects every artefact's
// paper-default benchmark set and sweep axes.
type Spec struct {
	// Benchmarks, when non-empty, replaces each artefact's default
	// benchmark subset (Table 2 always covers the full suite).
	Benchmarks []string
	// Thresholds is Figure 5's down-FSM threshold sweep (default 0,1,3,5).
	Thresholds []int
	// Seeds is the robustness artefact's workload-seed count (default 5).
	Seeds int
	// Latencies is the sensitivity artefact's memory-latency sweep in
	// ticks (default 50,100,200,400).
	Latencies []int
}

func (s Spec) subset(def []string) []string {
	if len(s.Benchmarks) > 0 {
		return s.Benchmarks
	}
	return def
}

func (s Spec) thresholds() []int {
	if len(s.Thresholds) > 0 {
		return s.Thresholds
	}
	return []int{0, 1, 3, 5}
}

func (s Spec) seeds() int {
	if s.Seeds > 0 {
		return s.Seeds
	}
	return 5
}

func (s Spec) latencies() []int {
	if len(s.Latencies) > 0 {
		return s.Latencies
	}
	return []int{50, 100, 200, 400}
}

// Output is one rendered artefact. Text carries the exact bytes the
// artefact contributes to stdout (renders include their trailing blank
// separator line; the summary, printed last, has none), so a driver
// printing outputs in artefact order reproduces the historical sequential
// byte stream regardless of execution order.
type Output struct {
	Name string
	Text string
	// CSV is the artefact's tabular form, nil for artefacts without one
	// (Table 1).
	CSV *report.Table
}

// Artefact is one declared evaluation output: a name and a closure that
// simulates and renders it under the given options and spec.
type Artefact struct {
	Name string
	run  func(o Options, s Spec) (Output, error)
}

// AllArtefacts returns the default campaign in canonical print order —
// what `cmd/experiments -exp all` regenerates.
func AllArtefacts() []Artefact {
	arts, _ := Artefacts("table1", "table2", "fig4", "fig5", "fig6", "fig7", "summary")
	return arts
}

// Artefacts resolves artefact names (the -exp vocabulary: table1, table2,
// fig4..fig7, summary, residency, robustness, sensitivity).
func Artefacts(names ...string) ([]Artefact, error) {
	arts := make([]Artefact, 0, len(names))
	for _, n := range names {
		a, ok := artefactByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", n)
		}
		arts = append(arts, a)
	}
	return arts, nil
}

// RunArtefacts executes the artefacts and returns their outputs in input
// order, streaming each output's Text to w (in artefact order, once every
// artefact has rendered). The writer decouples artefact generation from any
// particular sink: cmd/experiments passes os.Stdout and reproduces the
// historical byte stream exactly; the campaign service passes a per-job
// buffer; nil discards the stream (outputs are still returned). Without an
// Options.Engine it builds one shared engine, so overlapping points across
// artefacts are simulated once either way. By default every artefact plans
// and submits its points at once, and the engine's worker bound
// (sweep.Workers) caps the simulations of all of them together;
// sequential preserves the one-at-a-time order for debugging. Outputs are
// identical in both modes.
func RunArtefacts(w io.Writer, o Options, s Spec, arts []Artefact, sequential bool) ([]Output, error) {
	if o.Engine == nil && o.Job == nil {
		o.Engine = sweep.New(sweep.Workers(o.Parallelism))
	}
	outs := make([]Output, len(arts))
	errs := make([]error, len(arts))
	if sequential {
		for i, a := range arts {
			outs[i], errs[i] = a.run(o, s)
		}
	} else {
		var wg sync.WaitGroup
		for i, a := range arts {
			wg.Add(1)
			go func(i int, a Artefact) {
				defer wg.Done()
				outs[i], errs[i] = a.run(o, s)
			}(i, a)
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err == nil {
			continue
		}
		if !o.ContinueOnError {
			return nil, err
		}
		// Graceful degradation: the failed artefact is annotated in place
		// and the campaign's remaining outputs stand.
		outs[i] = Output{
			Name: arts[i].Name,
			Text: fmt.Sprintf("%s: FAILED: %v\n\n", arts[i].Name, err),
		}
	}
	if w != nil {
		for _, out := range outs {
			if _, err := io.WriteString(w, out.Text); err != nil {
				return outs, fmt.Errorf("experiments: writing artefact %s: %w", out.Name, err)
			}
		}
	}
	return outs, nil
}

func artefactByName(name string) (Artefact, bool) {
	run := func(f func(o Options, s Spec) (Output, error)) (Artefact, bool) {
		return Artefact{Name: name, run: f}, true
	}
	switch name {
	case "table1":
		return run(func(o Options, s Spec) (Output, error) {
			return Output{Name: name, Text: RenderTable1(sim.DefaultConfig()) + "\n"}, nil
		})
	case "table2":
		return run(func(o Options, s Spec) (Output, error) {
			rows, err := Table2(o)
			if err != nil {
				return Output{}, err
			}
			return Output{Name: name, Text: RenderTable2(rows) + "\n", CSV: Table2CSV(rows)}, nil
		})
	case "fig4":
		return run(func(o Options, s Spec) (Output, error) {
			rows, err := Figure4(o, s.subset(workload.Names()))
			if err != nil {
				return Output{}, err
			}
			return Output{Name: name, Text: RenderFigure4(rows) + "\n", CSV: Figure4CSV(rows)}, nil
		})
	case "fig5":
		return run(func(o Options, s Spec) (Output, error) {
			rows, err := Figure5(o, s.subset(workload.HighMRNames()), s.thresholds())
			if err != nil {
				return Output{}, err
			}
			return Output{Name: name, Text: RenderFigure5(rows) + "\n", CSV: Figure5CSV(rows)}, nil
		})
	case "fig6":
		return run(func(o Options, s Spec) (Output, error) {
			rows, err := Figure6(o, s.subset(workload.HighMRNames()), Figure6Variants())
			if err != nil {
				return Output{}, err
			}
			return Output{Name: name, Text: RenderFigure6(rows) + "\n", CSV: Figure6CSV(rows)}, nil
		})
	case "fig7":
		return run(func(o Options, s Spec) (Output, error) {
			rows, err := Figure7(o, s.subset(workload.Names()))
			if err != nil {
				return Output{}, err
			}
			return Output{Name: name, Text: RenderFigure7(rows) + "\n", CSV: Figure7CSV(rows)}, nil
		})
	case "summary":
		return run(func(o Options, s Spec) (Output, error) {
			// Re-derives Figure 7; against a shared engine its points are
			// cache hits (or joined in-flight when fig7 runs concurrently).
			rows, err := Figure7(o, s.subset(workload.Names()))
			if err != nil {
				return Output{}, err
			}
			sum := ComputeSummary(rows)
			return Output{Name: name, Text: RenderSummary(sum), CSV: SummaryCSV(sum)}, nil
		})
	case "residency":
		return run(func(o Options, s Spec) (Output, error) {
			rows, err := Residency(o, s.subset(workload.Names()))
			if err != nil {
				return Output{}, err
			}
			return Output{Name: name, Text: RenderResidency(rows) + "\n", CSV: ResidencyCSV(rows)}, nil
		})
	case "robustness":
		return run(func(o Options, s Spec) (Output, error) {
			rows, err := Robustness(o, s.subset(workload.HighMRNames()), s.seeds())
			if err != nil {
				return Output{}, err
			}
			return Output{Name: name, Text: RenderRobustness(rows) + "\n", CSV: RobustnessCSV(rows)}, nil
		})
	case "sensitivity":
		return run(func(o Options, s Spec) (Output, error) {
			rows, err := Sensitivity(o, s.subset(workload.HighMRNames()), s.latencies())
			if err != nil {
				return Output{}, err
			}
			return Output{Name: name, Text: RenderSensitivity(rows) + "\n", CSV: SensitivityCSV(rows)}, nil
		})
	}
	return Artefact{}, false
}

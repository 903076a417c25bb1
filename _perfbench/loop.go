package main

import (
	"fmt"
	"time"
)

// benchWorkload is one named input set of the benchmark.
type benchWorkload interface {
	// setup does everything a user pays before the first operation,
	// including computing the references ops are checked against.
	setup() error
	// op runs operation i and returns its duration and an error when it
	// failed or its output differs from the reference. Work after the
	// timed part (traced-only bookkeeping) is not included in the duration.
	op(i int, sc scope) (time.Duration, error)
	// shape says how ops are issued and aggregated; valid after setup.
	shape() shape
	// verify runs the checks made only after timing ends and returns how
	// many ops, counted as passed so far, failed them.
	verify() (int, error)
	// childRSS returns the resident memory, in bytes, of the processes an
	// op starts (the median op's), which the run's own figure leaves out.
	childRSS() float64
	// layers adds the workload's per-layer metrics after its traced segment.
	layers(tr *tracer, out outcome, v map[string]float64) error
	close()
}

type shape struct {
	kinds  int     // op i has kind i % kinds
	inst   float64 // simulated instructions per op
	minOps int     // ops a run makes at least, whatever the budget
}

// base supplies the defaults most workloads share.
type base struct{}

func (base) verify() (int, error) { return 0, nil }
func (base) childRSS() float64    { return 0 }

type sample struct {
	kind   int
	secs   float64
	traced bool
}

type outcome struct {
	samples  []sample
	failed   int
	firstErr error
}

// measure runs ops in a closed loop — one client, which issues its next op
// only when the previous one is done — until budget has passed and at
// least sh.minOps ops have run. With a tracer, groups of ops alternate
// between traced and untraced, so both halves run under the same host
// conditions and their difference is the tracing overhead. A group is one
// op, or one full cycle of op kinds, so both halves see every kind.
func measure(w benchWorkload, name string, budget time.Duration, tr *tracer, c *canary) outcome {
	sh := w.shape()
	deadline := time.Now().Add(budget)
	var out outcome
	for i := 0; i < sh.minOps || time.Now().Before(deadline); i++ {
		c.maybe()
		sc := scope{op: int64(i), parent: -1}
		traced := tr != nil && (i/sh.kinds)%2 == 0
		var root spanEnd
		if traced {
			sc.tr = tr
			root = sc.span("op." + name)
			sc.parent = root.id
		}
		d, err := w.op(i, sc)
		root.end()
		out.samples = append(out.samples, sample{kind: i % sh.kinds, secs: d.Seconds(), traced: traced})
		if err != nil {
			out.failed++
			if out.firstErr == nil {
				out.firstErr = fmt.Errorf("op %d: %w", i, err)
			}
		}
	}
	return out
}

// kindMedians returns the median op time of each kind among the samples
// keep selects (NaN for a kind with none).
func kindMedians(ss []sample, kinds int, keep func(sample) bool) []float64 {
	by := make([][]float64, kinds)
	for _, s := range ss {
		if keep(s) {
			by[s.kind] = append(by[s.kind], s.secs)
		}
	}
	out := make([]float64, kinds)
	for k, xs := range by {
		out[k] = median(xs)
	}
	return out
}

func all(sample) bool          { return true }
func tracedOnly(s sample) bool { return s.traced }
func untraced(s sample) bool   { return !s.traced }

// opP50 is the mean of the per-kind median op times. For one kind it is
// the plain median; for tickloop, whose kinds differ several-fold in
// length, the plain median would jump between kinds as the op count in a
// run shifts.
func opP50(ss []sample, kinds int, keep func(sample) bool) float64 {
	return mean(kindMedians(ss, kinds, keep))
}

// simRate is simulated instructions per second of op_p50_s, in Minst/s.
func simRate(sh shape, ss []sample) float64 {
	return sh.inst / opP50(ss, sh.kinds, all) / 1e6
}

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

func TestQuantile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{5, 1, 3, 2, 4}, 0.5, 3},
		{[]float64{5, 1, 3, 2, 4}, 0.25, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{7}, 0.9, 7},
		{[]float64{1, 2}, 0, 1},
		{[]float64{1, 2}, 1, 2},
	} {
		if got := quantile(tc.xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
	xs := []float64{3, 1, 2}
	quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("quantile reordered its input")
	}
}

// TestTailQuantile pins the reporting rule: a p90 needs at least ten
// samples beyond it, so 92 distinct samples are the fewest that qualify.
func TestTailQuantile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	if v, ok := tailQuantile(seq(100), 0.9); !ok || math.Abs(v-90.1) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90.1, true", v, ok)
	}
	if _, ok := tailQuantile(seq(92), 0.9); !ok {
		t.Error("p90 of 92 samples, ten beyond it, not reported")
	}
	if _, ok := tailQuantile(seq(91), 0.9); ok {
		t.Error("p90 of 91 samples reported with nine beyond it")
	}
	ties := seq(200)
	for i := range ties[:150] {
		ties[i] = 1000 // the top 150 samples equal: none lies beyond p90
	}
	if _, ok := tailQuantile(ties, 0.9); ok {
		t.Error("p90 reported with every sample above it tied to it")
	}
}

func TestCheckSpecs(t *testing.T) {
	for _, specs := range [][]metricSpec{endToEnd, perLayer()} {
		if err := checkSpecs(specs); err != nil {
			t.Errorf("declared metrics: %v", err)
		}
	}
	for _, bad := range []metricSpec{
		{"_leading", "s"},
		{"has space", "s"},
		{strings.Repeat("a", 65), "s"},
		{"ok", ""},
		{"ok", "sec onds"},
		{"ok", strings.Repeat("s", 17)},
	} {
		if err := checkSpecs([]metricSpec{bad}); err == nil {
			t.Errorf("checkSpecs accepted %+v", bad)
		}
	}
	if err := checkSpecs([]metricSpec{{"a", "s"}, {"a", "s"}}); err == nil {
		t.Error("checkSpecs accepted a duplicate name")
	}
}

func TestEmit(t *testing.T) {
	specs := []metricSpec{{"op_p50_s", "s"}, {"rss_peak_mb", "MB"}}
	var buf bytes.Buffer
	if err := emit(&buf, 12, 1, map[string]float64{"op_p50_s": 0.25, "rss_peak_mb": 17.5}, specs); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(buf.String(), "}\n") || strings.Count(buf.String(), "\n") != 1 {
		t.Fatalf("emit wrote %q, want one JSON line", buf.String())
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
		t.Errorf("result keys %v", keys)
	}
	var r result
	if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Attempted != 12 || r.Failed != 1 || r.Metrics["rss_peak_mb"] != (metric{17.5, "MB"}) {
		t.Errorf("round trip: %+v", r)
	}

	for name, values := range map[string]map[string]float64{
		"missing":    {"op_p50_s": 1},
		"undeclared": {"op_p50_s": 1, "rss_peak_mb": 2, "extra": 3},
		"NaN":        {"op_p50_s": math.NaN(), "rss_peak_mb": 2},
		"Inf":        {"op_p50_s": math.Inf(1), "rss_peak_mb": 2},
	} {
		buf.Reset()
		if err := emit(&buf, 1, 0, values, specs); err == nil || buf.Len() > 0 {
			t.Errorf("%s: emit returned %v and wrote %q; want an error and nothing written", name, err, buf.String())
		}
	}
	if err := emit(&buf, 0, 0, map[string]float64{"op_p50_s": 1, "rss_peak_mb": 2}, specs); err == nil {
		t.Error("emit accepted a run with no attempted op")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables here in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloadNames)
	}
	declared := func(specs []metricSpec) map[string]string {
		m := map[string]string{}
		for _, s := range specs {
			m[s.name] = s.unit
		}
		return m
	}
	e2e := declared(endToEnd)
	maxBound := 0.0
	for _, m := range doc.EndToEnd {
		if e2e[m.Name] != m.Unit {
			t.Errorf("end_to_end %s unit %q, want %q", m.Name, m.Unit, e2e[m.Name])
		}
		delete(e2e, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range doc.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	if len(e2e) > 0 {
		t.Errorf("end-to-end metrics missing from BENCHMARK.json: %v", e2e)
	}
	layer := declared(perLayer())
	for _, m := range doc.PerLayer {
		if layer[m.Name] != m.Unit {
			t.Errorf("per_layer %s unit %q, want %q", m.Name, m.Unit, layer[m.Name])
		}
		delete(layer, m.Name)
	}
	if len(layer) > 0 {
		t.Errorf("per-layer metrics missing from BENCHMARK.json: %v", layer)
	}
}

func TestSetSelf(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: union is 10..60
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent's end
		{Name: "a1", Start: 15, End: 25, Parent: 1},
	}
	setSelf(spans)
	for i, want := range []int64{100 - 50 - 10, 30 - 10, 30, 30, 10} {
		if spans[i].Self != want {
			t.Errorf("%s self = %d, want %d", spans[i].Name, spans[i].Self, want)
		}
	}
}

func TestTracerOff(t *testing.T) {
	var sc scope
	sp := sc.span("x")
	sp.end() // must not panic on a nil tracer
	tr := newTracer()
	sc = scope{tr: tr, op: 7, parent: -1}
	sc.span("x").end()
	if got := tr.named("x"); len(got) != 1 || got[0].Op != 7 || got[0].End < got[0].Start {
		t.Errorf("recorded spans %+v", got)
	}
}

func TestBucket(t *testing.T) {
	known := map[string]bool{"pipeline": true, "campaign": true}
	for fn, want := range map[string]string{
		"repro/internal/pipeline.(*Pipeline).issue":         "pipeline",
		"repro/internal/campaign/apiv1.EncodeJournalSubmit": "campaign",
		"repro/internal/cache.(*Cache).Fill":                "other",
		"runtime.mallocgc":                                  "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":      "runtime",
		"encoding/json.(*encodeState).marshal":              "other",
	} {
		if got := bucket(fn, known); got != want {
			t.Errorf("bucket(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestOpP50(t *testing.T) {
	ss := []sample{{0, 1, true}, {0, 3, false}, {0, 2, true}, {1, 10, false}, {1, 20, true}}
	if got := opP50(ss, 2, all); got != (2+15)/2.0 {
		t.Errorf("opP50 = %v, want mean of per-kind medians 8.5", got)
	}
	if got := opP50(ss, 2, tracedOnly); got != (1.5+20)/2 {
		t.Errorf("traced opP50 = %v, want 10.75", got)
	}
	sh := shape{kinds: 2, inst: 2e6}
	if got := simRate(sh, ss); math.Abs(got-2/8.5) > 1e-12 {
		t.Errorf("simRate = %v, want 2 Minst over 8.5 s", got)
	}
}

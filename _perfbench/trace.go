package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans are kept in
// memory for the whole run and written out once, when it ends.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the span that caused it; -1 for a root
	Op     int64  `json:"op"`     // client<<32 | op index; -1 for a probe outside any op
	Self   int64  `json:"self_ns"`
}

// tracer records spans. A nil *tracer is valid and records nothing, so
// untraced ops pay one nil check per layer call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(name string, parent int, op int64) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// named returns a copy of the finished spans with the given name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// seconds returns the durations of the finished spans with the given name.
func (t *tracer) seconds(name string) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, float64(s.End-s.Start)/1e9)
	}
	return out
}

// scope is one op's tracing context: the tracer (nil when the op is not
// traced), the op's id and the span new spans hang under.
type scope struct {
	tr     *tracer
	op     int64
	parent int
}

func (s scope) traced() bool { return s.tr != nil }

// spanEnd closes a span; its zero value closes nothing. It is a value, not
// a closure, so tracing allocates nothing per span beyond the span itself.
type spanEnd struct {
	tr *tracer
	id int
}

func (s scope) span(name string) spanEnd {
	if s.tr == nil {
		return spanEnd{}
	}
	return spanEnd{s.tr, s.tr.begin(name, s.parent, s.op)}
}

func (e spanEnd) end() {
	if e.tr != nil {
		e.tr.end(e.id)
	}
}

// probe times f as a root span outside any op and returns its seconds.
func probe(tr *tracer, name string, f func(sc scope) error) (float64, error) {
	sc := scope{tr: tr, op: -1, parent: -1}
	sp := sc.span(name)
	sc.parent = sp.id
	t0 := time.Now()
	err := f(sc)
	d := time.Since(t0).Seconds()
	sp.end()
	return d, err
}

// setSelf sets each finished span's self time: its duration minus the part
// of its interval that its children's intervals cover (children of one span
// may overlap, so their union is subtracted, not their sum).
func setSelf(spans []span) {
	kids := map[int][]int{}
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.End < 0 {
			continue
		}
		var ivs [][2]int64
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, [2]int64{a, b})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, lo, hi int64
		for _, iv := range ivs {
			if iv[0] > hi {
				covered += hi - lo
				lo, hi = iv[0], iv[1]
			} else if iv[1] > hi {
				hi = iv[1]
			}
		}
		covered += hi - lo
		s.Self = s.End - s.Start - covered
	}
}

// write sets self times, writes every span as one JSON line to path, and
// prints a per-name summary (count, total and self seconds) to summary.
func (t *tracer) write(path string, summary io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	setSelf(t.spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type agg struct {
		n           int
		total, self int64
	}
	byName := map[string]*agg{}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
		}
		a.n++
		a.total += s.End - s.Start
		a.self += s.Self
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(summary, "%-36s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(summary, "%-36s %8d %12.4f %12.4f\n", n, a.n, float64(a.total)/1e9, float64(a.self)/1e9)
	}
	return nil
}

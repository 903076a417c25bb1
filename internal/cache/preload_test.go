package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

func TestLineIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(line{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(line{}) = %d, want 16", got)
	}
}

// fillLoop is the reference Preload: one clean Fill per block, stepping
// BlockBytes from each span's base while below its end.
func fillLoop(c *Cache, spans []Span) {
	bb := uint64(c.Config().BlockBytes)
	for _, sp := range spans {
		for a := sp.Base; a < sp.Base+sp.Bytes; a += bb {
			c.Fill(a, false, false)
		}
	}
}

// randomGeometry returns a small cache with power-of-two block size, way
// count and set count.
func randomGeometry(rng *rand.Rand) Config {
	bb := 8 << rng.Intn(4)
	assoc := 1 << rng.Intn(5)
	sets := 1 << rng.Intn(7)
	return Config{Name: "P", SizeBytes: bb * assoc * sets, Assoc: assoc, BlockBytes: bb,
		HitLatency: 1, MSHREntries: 1}
}

// randomSpans returns 0-4 spans with unaligned bases, each up to three
// times the cache's capacity, so sets overflow their ways. With overlap
// set, a later span may start inside an earlier one.
func randomSpans(rng *rand.Rand, cfg Config, overlap bool) []Span {
	spans := make([]Span, rng.Intn(5))
	next := uint64(rng.Intn(1 << 20))
	for i := range spans {
		bytes := uint64(rng.Intn(3*cfg.SizeBytes + 1))
		if rng.Intn(8) == 0 {
			bytes = 0
		}
		spans[i] = Span{Base: next, Bytes: bytes}
		// Leave a gap of at least one block, so spans stay disjoint.
		next += bytes + uint64(cfg.BlockBytes) + uint64(rng.Intn(4*cfg.SizeBytes))
	}
	if overlap && len(spans) > 1 {
		i := 1 + rng.Intn(len(spans)-1)
		prev := spans[rng.Intn(i)]
		spans[i].Base = prev.Base + uint64(rng.Int63n(int64(prev.Bytes)+1))
	}
	rng.Shuffle(len(spans), func(i, j int) { spans[i], spans[j] = spans[j], spans[i] })
	return spans
}

// TestPreloadMatchesFillLoop is the differential behind Preload's direct
// path: over random geometries and span lists, a preloaded cache must be
// deeply equal (ways, stamps, counters, use clock) to one filled block by
// block. Overlapping spans and caches that already hold lines take the
// Fill fallback and must match too.
func TestPreloadMatchesFillLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	direct := 0
	const cases = 3000
	for n := 0; n < cases; n++ {
		cfg := randomGeometry(rng)
		overlap, occupied := rng.Intn(4) == 0, rng.Intn(4) == 0
		spans := randomSpans(rng, cfg, overlap)
		got, want := New(cfg), New(cfg)
		if occupied {
			for i := rng.Intn(2 * cfg.SizeBytes / cfg.BlockBytes); i >= 0; i-- {
				a := uint64(rng.Intn(1 << 22))
				w, p := rng.Intn(2) == 0, rng.Intn(2) == 0
				got.Fill(a, w, p)
				want.Fill(a, w, p)
			}
		}
		if got.useClock == 0 && got.placeable(spans) {
			direct++
		}
		got.Preload(spans)
		fillLoop(want, spans)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: geometry %+v, spans %+v (overlap %v, occupied %v): Preload diverges from the Fill loop\nstats %+v\nwant  %+v",
				n, cfg, spans, overlap, occupied, got.Stats(), want.Stats())
		}
	}
	if direct < cases/2 {
		t.Fatalf("only %d of %d cases took the direct path", direct, cases)
	}
}

// TestPreloadTopOfAddressSpace covers spans ending in the last block below
// 2^64: one that stops there is placed directly, one whose block walk wraps
// past it falls back to Fill per block.
func TestPreloadTopOfAddressSpace(t *testing.T) {
	cfg := Config{Name: "T", SizeBytes: 1024, Assoc: 2, BlockBytes: 32, HitLatency: 1, MSHREntries: 1}
	for _, tc := range []struct {
		name  string
		span  Span
		fills []uint64
		place bool
	}{
		{"last-block", Span{Base: ^uint64(0) - 47, Bytes: 40}, []uint64{^uint64(0) - 47, ^uint64(0) - 15}, true},
		{"wraps", Span{Base: ^uint64(0) - 15, Bytes: 64}, []uint64{^uint64(0) - 15, 16}, false},
	} {
		got, want := New(cfg), New(cfg)
		spans := []Span{tc.span}
		if p := got.placeable(spans); p != tc.place {
			t.Errorf("%s: placeable = %v, want %v", tc.name, p, tc.place)
		}
		got.Preload(spans)
		for _, a := range tc.fills {
			want.Fill(a, false, false)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Preload diverges from per-block fills: stats %+v, want %+v",
				tc.name, got.Stats(), want.Stats())
		}
	}
}

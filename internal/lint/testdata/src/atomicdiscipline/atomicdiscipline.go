// Package atomicdiscipline is a vsvlint fixture: each construct below is
// annotated with the diagnostic the atomicdiscipline analyzer must (or
// must not) produce. See internal/lint/lint_test.go for the harness.
package atomicdiscipline

import "sync/atomic"

// counter mixes atomic and plain access to its hits field.
type counter struct {
	hits int64
	name string
}

// incr is the sanctioned atomic access that makes hits an atomic field.
func (c *counter) incr() {
	atomic.AddInt64(&c.hits, 1)
}

// read races the atomic adds with a plain load.
func (c *counter) read() int64 {
	return c.hits // want `mixed access to hits: plain use races with the sync/atomic access`
}

// clear races them with a plain store.
func (c *counter) clear() {
	c.hits = 0 // want `mixed access to hits`
}

// label touches only the plain field: silent.
func (c *counter) label() string {
	return c.name
}

// NewCounter builds the value before it is published: plain
// initialization inside a constructor is sanctioned.
func NewCounter() *counter {
	c := &counter{name: "fresh"}
	c.hits = 0
	return c
}

// total is a package-level variable accessed both ways.
var total int64

func bump() {
	atomic.AddInt64(&total, 1)
}

func sloppyTotal() int64 {
	return total // want `mixed access to total`
}

// typed uses the method-based atomic types everywhere: silent (the type
// system already forbids plain access).
type typed struct {
	n atomic.Int64
}

func (t *typed) incr()       { t.n.Add(1) }
func (t *typed) read() int64 { return t.n.Load() }

// keep the fixture self-contained: reference everything so the package
// compiles without unused warnings.
var (
	_ = (&counter{}).read
	_ = (&counter{}).clear
	_ = (&counter{}).label
	_ = NewCounter
	_ = bump
	_ = sloppyTotal
	_ = (&typed{}).incr
	_ = (&typed{}).read
)

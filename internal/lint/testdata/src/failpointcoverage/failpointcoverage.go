// Package failpointcoverage is a vsvlint fixture: each construct below
// is annotated with the diagnostic the failpointcoverage analyzer must
// (or must not) produce. Importing the failpoint helpers is what places
// the package inside the durable surface. See internal/lint/lint_test.go.
package failpointcoverage

import (
	"bufio"
	"os"

	"repro/internal/failpoint"
)

// routed sends every mutating op through the failpoint helpers: silent.
func routed(f *os.File, p []byte) error {
	if _, err := failpoint.Write("fixture.append", f, p); err != nil {
		return err
	}
	return failpoint.Sync("fixture.sync", f)
}

// direct bypasses the injection table: every op here is invisible to the
// kill -9 and torn-write tests.
func direct(f *os.File, p []byte) error {
	if _, err := f.Write(p); err != nil { // want `direct \(\*os\.File\)\.Write escapes failpoint crash-injection`
		return err
	}
	if err := f.Sync(); err != nil { // want `direct \(\*os\.File\)\.Sync escapes failpoint crash-injection`
		return err
	}
	return f.Truncate(0) // want `direct \(\*os\.File\)\.Truncate escapes failpoint crash-injection`
}

// buffered bypasses it through a bufio.Writer.
func buffered(w *bufio.Writer, p []byte) error {
	if _, err := w.Write(p); err != nil { // want `direct \(\*bufio\.Writer\)\.Write escapes failpoint crash-injection`
		return err
	}
	return w.Flush() // want `direct \(\*bufio\.Writer\)\.Flush escapes failpoint crash-injection`
}

// lifecycle ops are out of scope: Close does not mutate durable bytes
// (the close-path fsync is its own failpoint site) and ReadAt is a read.
func lifecycle(f *os.File, buf []byte) error {
	if _, err := f.ReadAt(buf, 0); err != nil {
		return err
	}
	return f.Close()
}

var (
	_ = routed
	_ = direct
	_ = buffered
	_ = lifecycle
)

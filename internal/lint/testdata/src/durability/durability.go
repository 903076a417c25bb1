// Package durability is a vsvlint fixture: each construct below is
// annotated with the diagnostic the durability analyzer must (or must
// not) produce. Importing the failpoint helpers is what places the
// package inside the durable surface. See internal/lint/lint_test.go.
package durability

import (
	"fmt"
	"os"

	"repro/internal/failpoint"
)

// wal is a durable writer in the fixture package; its write-shaped
// methods carry the same obligations as the journal's.
type wal struct{ f *os.File }

func (w *wal) Append(p []byte) error {
	_, err := failpoint.Write("wal.append", w.f, p)
	return err
}

func (w *wal) Sync() error {
	return failpoint.Sync("wal.sync", w.f)
}

// dropBare discards durable errors as bare statements.
func dropBare(w *wal, f *os.File) {
	w.Append(nil)                 // want `\(\*durability\.wal\)\.Append error is discarded; durable-write errors must be checked`
	f.Sync()                      // want `\(\*os\.File\)\.Sync error is discarded`
	failpoint.Sync("wal.sync", f) // want `failpoint\.Sync error is discarded`
}

// dropBlank hides the discard behind a blank assignment.
func dropBlank(w *wal, f *os.File) {
	_ = w.Append(nil)           // want `\(\*durability\.wal\)\.Append error is discarded behind a blank assignment`
	_, _ = f.Write([]byte("x")) // want `\(\*os\.File\)\.Write error is discarded behind a blank assignment`
	_ = os.Remove("/tmp/nope")  // want `os\.Remove error is discarded behind a blank assignment`
}

// closeOnErrorPath is the one sanctioned blank: `_ = f.Close()` where a
// better error is already in flight. Silent.
func closeOnErrorPath(f *os.File) error {
	if _, err := f.Write([]byte("x")); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// dropDefer defers a durable op, losing its error.
func dropDefer(w *wal) {
	defer w.Sync() // want `deferred \(\*durability\.wal\)\.Sync discards its error`
}

// dropGo launches a durable op with go, losing its error.
func dropGo(w *wal) {
	go w.Sync() // want `\(\*durability\.wal\)\.Sync launched with go discards its error`
}

// checked handles every error: silent.
func checked(w *wal, f *os.File) error {
	if err := w.Append([]byte("x")); err != nil {
		return fmt.Errorf("append: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	return nil
}

// proseWrap flattens the typed chain with %v.
func proseWrap(w *wal) error {
	if err := w.Sync(); err != nil {
		return fmt.Errorf("sync failed: %v", err) // want `fmt\.Errorf wraps an error without %w`
	}
	return nil
}

// nonErrorFormat only interpolates strings: silent.
func nonErrorFormat(name string) error {
	return fmt.Errorf("unknown campaign %q", name)
}

var (
	_ = dropBare
	_ = dropBlank
	_ = closeOnErrorPath
	_ = dropDefer
	_ = dropGo
	_ = checked
	_ = proseWrap
	_ = nonErrorFormat
)

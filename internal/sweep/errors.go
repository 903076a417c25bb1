package sweep

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/campaign/apiv1"
	"repro/internal/sim"
)

// RunError is the structured failure of one campaign point. It carries
// enough to reproduce the failure ((Benchmark, Seed, Config fingerprint)
// identify the run; the wrapped error carries the machine snapshot when the
// failure came from the simulator) and enough to triage it (the attempt
// count, and the recovered stack when the failure was a bare panic).
type RunError struct {
	// Key, Benchmark and Seed identify the failed point.
	Key       string
	Benchmark string
	Seed      uint64
	// Fingerprint is the point's memoization fingerprint — with the
	// campaign's plan (or ledger) it pins down the exact configuration
	// that failed.
	Fingerprint string
	// Attempts is how many times the point was tried (> 1 when transient
	// failures were retried).
	Attempts int
	// Err is the underlying failure: a *sim.CheckError for structured
	// simulator failures (self-check, watchdog, deadline), a validation
	// error, or a wrapped bare panic.
	Err error
	// Stack is the goroutine stack captured at recovery when Err was a bare
	// panic (nil otherwise — structured failures carry their own snapshot).
	Stack []byte
}

// Error renders the one-line diagnosis.
func (e *RunError) Error() string {
	return fmt.Sprintf("sweep: point %q (bench %s seed %d) failed after %d attempt(s): %v",
		e.Key, e.Benchmark, e.Seed, e.Attempts, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is / errors.As.
func (e *RunError) Unwrap() error { return e.Err }

// API converts the failure to its typed wire form (apiv1.ErrRun), with the
// underlying failure as the cause chain.
func (e *RunError) API() *apiv1.Error {
	return &apiv1.Error{
		Type:        apiv1.ErrRun,
		Message:     e.Error(),
		Key:         e.Key,
		Benchmark:   e.Benchmark,
		Seed:        e.Seed,
		Fingerprint: e.Fingerprint,
		Attempts:    e.Attempts,
		Cause:       apiv1.FromError(e.Err),
	}
}

// BudgetError is the admission-control failure of a budgeted job: a RunAll
// call would push the job past its MaxPoints cap. Nothing was simulated.
type BudgetError struct {
	// Submitted is how many points the job had already submitted,
	// Requested how many the rejected call asked for, and Budget the cap.
	Submitted, Requested, Budget int
}

// Error renders the one-line diagnosis.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("sweep: run budget exceeded: %d submitted + %d requested > budget %d",
		e.Submitted, e.Requested, e.Budget)
}

// API converts the failure to its typed wire form (apiv1.ErrBudget).
func (e *BudgetError) API() *apiv1.Error {
	return &apiv1.Error{Type: apiv1.ErrBudget, Message: e.Error()}
}

// PoisonedError is the typed failure of a quarantined campaign point: its
// fingerprint carries a ledger poison record (the same point crashed
// enough workers that a supervisor withdrew it), so the engine fails it
// without running it. Nothing was simulated.
type PoisonedError struct {
	// Key and Fingerprint identify the quarantined point.
	Key         string
	Fingerprint string
	// Reason is the supervisor's one-line evidence for the quarantine.
	Reason string
}

// Error renders the one-line diagnosis.
func (e *PoisonedError) Error() string {
	return fmt.Sprintf("sweep: point %q (fp %s) is quarantined: %s", e.Key, e.Fingerprint, e.Reason)
}

// API converts the failure to its typed wire form (apiv1.ErrPoisoned).
func (e *PoisonedError) API() *apiv1.Error {
	return &apiv1.Error{
		Type:        apiv1.ErrPoisoned,
		Message:     e.Error(),
		Key:         e.Key,
		Fingerprint: e.Fingerprint,
	}
}

// APIError converts any campaign error chain to its typed wire form,
// recognizing this package's failures (*RunError, *BudgetError,
// *PoisonedError) before falling back to apiv1.FromError for simulator
// failures, cancellations and everything else.
func APIError(err error) *apiv1.Error {
	if err == nil {
		return nil
	}
	var re *RunError
	if errors.As(err, &re) {
		return re.API()
	}
	var be *BudgetError
	if errors.As(err, &be) {
		return be.API()
	}
	var pe *PoisonedError
	if errors.As(err, &pe) {
		return pe.API()
	}
	return apiv1.FromError(err)
}

// panicError wraps a recovered non-structured panic value so it travels as
// an error without losing the original value's rendering or the stack it
// was recovered on.
type panicError struct {
	value interface{}
	stack []byte
}

func (p *panicError) Error() string { return fmt.Sprintf("panic: %v", p.value) }

// transient reports whether err is worth retrying: wall-clock deadline
// expiries are (the machine may have been starved by load on a shared box),
// while self-check trips, watchdog expiries, validation errors and bare
// panics are deterministic and would only fail again.
func transient(err error) bool {
	var ce *sim.CheckError
	if errors.As(err, &ce) {
		return ce.Kind == sim.FailDeadline
	}
	return false
}

// isCancel reports whether err is a cancellation rather than a genuine
// point failure (the caller's context, or the engine's own first-failure
// abort).
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Package failpoint injects deterministic I/O failures into the
// durability-critical write paths (the record log under the campaign
// journal and the sweep ledger) so crash-safety claims are tested
// against the failures they promise to survive, not just the happy path.
//
// A failpoint is a named site in production code that routes an operation
// through this package. Unarmed — the production default — every helper
// short-circuits on one atomic pointer load and performs the underlying
// operation untouched; no map lookup, no parsing, no allocation. Armed,
// a site fires its configured action on a deterministic call count, so a
// failure schedule reproduces exactly across runs and across the process
// boundary (the arming travels in an environment variable, which forked
// workers and smoke-test subprocesses inherit).
//
// Arming: set VSV_FAILPOINTS (or call Arm in tests) to a comma-separated
// list of directives
//
//	site=action[@N][+][:key=VALUE]
//
// where site names the failpoint, action is one of the Action constants
// below, N is the 1-based call count at which the action fires (default
// 1), a trailing '+' keeps it firing on every call from N on (default:
// fire exactly once), and key=VALUE restricts a keyed site (CrashIf) to
// calls matching VALUE.
//
// Actions:
//
//	err        the guarded operation is skipped; a typed *Error returns
//	enospc     half the payload is written, then *Error wrapping
//	           syscall.ENOSPC returns — a torn line on a full disk
//	short      half the payload is written, then *Error wrapping
//	           io.ErrShortWrite returns — a torn line, space available
//	skip       the guarded operation is silently skipped and reports
//	           success — a lost write or fsync
//	crash      half the payload is written (Write sites), then the
//	           process exits with CrashExitCode — kill -9 mid-write
//
// Every injected failure is either a typed *Error the caller must handle
// or a process death the caller's recovery path must tolerate on reopen;
// silent corruption is not on the menu.
package failpoint

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
)

// EnvVar is the environment variable Arm parses at startup. Forked
// subprocesses inherit it, so a crash schedule reaches workers.
const EnvVar = "VSV_FAILPOINTS"

// CrashExitCode is the exit status of a crash-action death, distinct from
// ordinary failure codes so supervisors can tell an injected crash from a
// real one in test logs.
const CrashExitCode = 17

// Action names for directive parsing.
const (
	ActionErr    = "err"
	ActionENOSPC = "enospc"
	ActionShort  = "short"
	ActionSkip   = "skip"
	ActionCrash  = "crash"
)

// Error is an injected failure: the typed error every armed site surfaces
// (crash sites excepted — those do not return).
type Error struct {
	// Site is the failpoint that fired; Action is what it did.
	Site, Action string
	// Cause is the simulated underlying error (syscall.ENOSPC,
	// io.ErrShortWrite), nil for plain err/skip actions.
	Cause error
}

// Error renders the one-line diagnosis.
func (e *Error) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("failpoint %s: injected %s: %v", e.Site, e.Action, e.Cause)
	}
	return fmt.Sprintf("failpoint %s: injected %s", e.Site, e.Action)
}

// Unwrap exposes the simulated cause to errors.Is (a caller checking for
// ENOSPC sees ENOSPC).
func (e *Error) Unwrap() error { return e.Cause }

// site is one armed directive. The hit counter is atomic so concurrent
// writers (ledger appends race across goroutines) count deterministically
// in total even when the interleaving varies.
type site struct {
	action string
	at     int64 // fire on the at-th matching call (1-based)
	sticky bool  // keep firing from at on
	keyed  bool  // only calls whose key matches fire
	key    string
	hits   atomic.Int64
	fired  atomic.Int64 // observability: how many times the action fired
}

// table is the armed configuration; nil when unarmed. Swapped atomically
// so the unarmed fast path is a single pointer load.
var table atomic.Pointer[map[string]*site]

func init() {
	if spec := os.Getenv(EnvVar); spec != "" {
		if err := Arm(spec); err != nil {
			// A malformed schedule must not silently disarm a crash test.
			fmt.Fprintf(os.Stderr, "failpoint: %v\n", err)
			os.Exit(2)
		}
	}
}

// Armed reports whether any failpoint is armed — the fast-path guard.
func Armed() bool { return table.Load() != nil }

// Arm installs a failure schedule, replacing any previous one. Tests call
// it directly; production processes are armed through EnvVar.
func Arm(spec string) error {
	m := make(map[string]*site)
	for _, directive := range strings.Split(spec, ",") {
		directive = strings.TrimSpace(directive)
		if directive == "" {
			continue
		}
		name, s, err := parseDirective(directive)
		if err != nil {
			return err
		}
		m[name] = s
	}
	if len(m) == 0 {
		return fmt.Errorf("failpoint: empty schedule %q", spec)
	}
	table.Store(&m)
	return nil
}

// Disarm removes every armed failpoint (tests; pair with defer).
func Disarm() { table.Store(nil) }

// Fired returns how many times the named site's action has fired (0 when
// unarmed or never fired) — for test assertions.
func Fired(name string) int {
	t := table.Load()
	if t == nil {
		return 0
	}
	s, ok := (*t)[name]
	if !ok {
		return 0
	}
	return int(s.fired.Load())
}

// parseDirective parses one site=action[@N][+][:key=VALUE] directive.
func parseDirective(directive string) (string, *site, error) {
	name, rest, ok := strings.Cut(directive, "=")
	if !ok || name == "" {
		return "", nil, fmt.Errorf("failpoint: directive %q is not site=action", directive)
	}
	s := &site{at: 1}
	if spec, kv, ok := strings.Cut(rest, ":"); ok {
		rest = spec
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k != "key" {
			return "", nil, fmt.Errorf("failpoint: directive %q: want :key=VALUE, got %q", directive, kv)
		}
		s.keyed, s.key = true, v
	}
	if strings.HasSuffix(rest, "+") {
		s.sticky = true
		rest = strings.TrimSuffix(rest, "+")
	}
	if action, at, ok := strings.Cut(rest, "@"); ok {
		rest = action
		n, err := strconv.Atoi(at)
		if err != nil || n < 1 {
			return "", nil, fmt.Errorf("failpoint: directive %q: bad call count %q", directive, at)
		}
		s.at = int64(n)
	}
	switch rest {
	case ActionErr, ActionENOSPC, ActionShort, ActionSkip, ActionCrash:
		s.action = rest
	default:
		return "", nil, fmt.Errorf("failpoint: directive %q: unknown action %q", directive, rest)
	}
	return name, s, nil
}

// fire resolves whether the named site fires on this call (matching key,
// call count reached). It returns the armed action, or "" to proceed
// normally.
func fire(name, key string) (string, *site) {
	t := table.Load()
	if t == nil {
		return "", nil
	}
	s, ok := (*t)[name]
	if !ok {
		return "", nil
	}
	if s.keyed && s.key != key {
		return "", nil
	}
	n := s.hits.Add(1)
	if n < s.at || (!s.sticky && n != s.at) {
		return "", nil
	}
	s.fired.Add(1)
	return s.action, s
}

// Write performs w.Write(p) through the named site. Unarmed (or not
// firing), it is exactly w.Write. Armed, err skips the write entirely;
// enospc and short write the first half of p then return the typed error;
// crash writes the first half then kills the process.
func Write(name string, w io.Writer, p []byte) (int, error) {
	if table.Load() == nil {
		return w.Write(p)
	}
	action, _ := fire(name, "")
	switch action {
	case "":
		return w.Write(p)
	case ActionErr:
		return 0, &Error{Site: name, Action: action}
	case ActionENOSPC, ActionShort:
		n, _ := w.Write(p[:len(p)/2])
		cause := error(syscall.ENOSPC)
		if action == ActionShort {
			cause = io.ErrShortWrite
		}
		return n, &Error{Site: name, Action: action, Cause: cause}
	case ActionCrash:
		w.Write(p[:len(p)/2])
		if f, ok := w.(interface{ Sync() error }); ok {
			f.Sync() // the torn half must actually reach the disk
		}
		os.Exit(CrashExitCode)
	case ActionSkip:
		// Pretend the write happened; the bytes are lost. The caller sees
		// success, so recovery must come from the reopen path — which is
		// exactly what a skip site exists to prove.
		return len(p), nil
	}
	return w.Write(p)
}

// syncer is the subset of *os.File the Sync site needs.
type syncer interface{ Sync() error }

// Sync performs f.Sync() through the named site: err returns the typed
// error without syncing, skip silently skips the sync, crash kills the
// process before it.
func Sync(name string, f syncer) error {
	if table.Load() == nil {
		return f.Sync()
	}
	action, _ := fire(name, "")
	switch action {
	case "":
		return f.Sync()
	case ActionErr, ActionENOSPC:
		e := &Error{Site: name, Action: action}
		if action == ActionENOSPC {
			e.Cause = syscall.ENOSPC
		}
		return e
	case ActionSkip:
		return nil
	case ActionCrash:
		os.Exit(CrashExitCode)
	}
	return f.Sync()
}

// CrashIf kills the process when the named site is armed with crash and
// its key restriction matches key (or has no restriction). Unarmed, one
// atomic load. This is the crash-here hook: chaos drills pin it to a
// specific campaign point to simulate a poisoned input that kills any
// worker that touches it.
func CrashIf(name, key string) {
	if table.Load() == nil {
		return
	}
	if action, _ := fire(name, key); action == ActionCrash {
		fmt.Fprintf(os.Stderr, "failpoint %s: injected crash (key %q)\n", name, key)
		os.Exit(CrashExitCode)
	}
}

package recordlog

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/failpoint"
)

// crashEnv turns the re-executed test binary into a crashing writer: a
// crash leg of the failpoint matrix runs its failing operation in a child
// process, which TestMain intercepts before any test runs. The value is
// "site action fsync path"; the armed crash exits with
// failpoint.CrashExitCode, and a child whose operation never reaches the
// site exits 0.
const crashEnv = "RECORDLOG_TEST_CRASH"

func TestMain(m *testing.M) {
	if spec := os.Getenv(crashEnv); spec != "" {
		f := strings.SplitN(spec, " ", 4)
		fsync, _ := strconv.ParseBool(f[2])
		leg{f[0], f[1], fsync}.run(f[3])
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var (
	acked  = []string{`{"n":1}`, `{"n":2}`}
	victim = `{"n":3,"pad":"` + strings.Repeat("x", 64) + `"}`
	next   = `{"n":4}`
)

// leg is one cell of the failpoint matrix: an action armed at one of the
// log's sites (rl.append, rl.sync or rl.close), with fsync off or on.
type leg struct {
	site, action string
	fsync        bool
}

// run opens the log, appends the records acknowledged before the
// failure, arms the leg and runs what reaches its site: the victim's
// append, then Sync or Close. It returns the log and the operation's
// error.
func (lg leg) run(path string) (*Log, error) {
	l, err := Open(path, "rl", lg.fsync)
	for i := 0; err == nil && i < len(acked); i++ {
		err = l.Append([]byte(acked[i]))
	}
	if err == nil {
		err = failpoint.Arm("rl." + lg.site + "=" + lg.action)
	}
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer failpoint.Disarm()
	if err = l.Append([]byte(victim)); err == nil && lg.site == "sync" {
		err = l.Sync()
	} else if err == nil && lg.site == "close" {
		err = l.Close()
	}
	return l, err
}

// TestFailpointMatrix drives every site × action × fsync setting, then
// appends the next record and reads the file back through a fresh
// handle: every acknowledged record reads back, the failed record reads
// back whole or not at all (a torn half is one skipped line), and the
// next record reads back. Actions that fire return a typed
// *failpoint.Error — err and enospc at every site, short at a write —
// while skip succeeds silently. A crash leg dies in a child process and
// the next record comes from a fresh handle, as it does after close.
func TestFailpointMatrix(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range []string{"append", "sync", "close"} {
		for _, action := range []string{failpoint.ActionErr, failpoint.ActionENOSPC,
			failpoint.ActionShort, failpoint.ActionSkip, failpoint.ActionCrash} {
			for _, fsync := range []bool{false, true} {
				lg := leg{site, action, fsync}
				reached := site != "close" || fsync // the close-time fsync needs fsync set
				wantErr := reached && (action == failpoint.ActionErr || action == failpoint.ActionENOSPC ||
					action == failpoint.ActionShort && site == "append")
				torn := site == "append" && (action == failpoint.ActionENOSPC ||
					action == failpoint.ActionShort || action == failpoint.ActionCrash)
				t.Run(fmt.Sprintf("%s=%s/fsync=%v", site, action, fsync), func(t *testing.T) {
					path := filepath.Join(t.TempDir(), "log.jsonl")
					var l *Log
					var err error
					if action == failpoint.ActionCrash {
						cmd := exec.Command(exe, "-test.run=^$")
						cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s %s %v %s", crashEnv, site, action, fsync, path))
						out, err := cmd.CombinedOutput()
						want := 0
						if reached {
							want = failpoint.CrashExitCode
						}
						if cmd.ProcessState == nil || cmd.ProcessState.ExitCode() != want {
							t.Fatalf("child: %v, want exit %d\n%s", err, want, out)
						}
					} else {
						l, err = lg.run(path)
						var fe *failpoint.Error
						typed := errors.As(err, &fe) && fe.Site == "rl."+site && fe.Action == action
						if typed != wantErr || err != nil && !typed {
							t.Fatalf("operation = %v, want a typed error: %v", err, wantErr)
						}
					}
					if l == nil || site == "close" {
						if l, err = Open(path, "rl", fsync); err != nil {
							t.Fatal(err)
						}
					}
					if err := l.Append([]byte(next)); err != nil {
						t.Fatalf("next append: %v", err)
					}
					if err := l.Close(); err != nil {
						t.Fatal(err)
					}

					want := map[string]int{acked[0]: 1, acked[1]: 1, victim: 1, next: 1, "": 0}
					if site == "append" {
						want[victim] = 0 // every append-site action loses the write
					}
					if torn {
						want[""] = 1 // the torn half, skipped
					}
					seen := readAll(t, path)
					for rec, n := range want {
						if seen[rec] != n {
							t.Errorf("%q read back %d times, want %d (\"\" counts skipped lines)", rec, seen[rec], n)
						}
					}
				})
			}
		}
	}
}

// readAll reads the log through a fresh handle whose callback accepts
// only the matrix's records, counting each; seen[""] is the number of
// lines it rejected.
func readAll(t *testing.T, path string) map[string]int {
	t.Helper()
	l, err := Open(path, "rl", false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	seen := map[string]int{}
	known := map[string]bool{acked[0]: true, acked[1]: true, victim: true, next: true}
	if err := l.Read(func(line []byte) bool {
		seen[string(line)]++
		return known[string(line)]
	}); err != nil {
		t.Fatal(err)
	}
	seen[""] = l.Skipped()
	return seen
}

// TestAppendAfterOtherWritersFragment pins the leading terminator across
// two logs on one file: a record one log appends after the other's torn
// half reads back whole — also through the first log's own incremental
// reader, which last read the file before the fragment arrived.
func TestAppendAfterOtherWritersFragment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	dead, err := Open(path, "dead", false)
	if err != nil {
		t.Fatal(err)
	}
	live, err := Open(path, "live", false)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	var got []string
	collect := func(line []byte) bool {
		got = append(got, string(line))
		return string(line) == next
	}
	if err := live.Read(collect); err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Arm("dead.append=short"); err != nil {
		t.Fatal(err)
	}
	err = dead.Append([]byte(victim))
	failpoint.Disarm()
	dead.Close()
	if err == nil {
		t.Fatal("torn append succeeded")
	}
	if err := live.Append([]byte(next)); err != nil {
		t.Fatal(err)
	}
	if err := live.Read(collect); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1] != next || live.Skipped() != 1 {
		t.Fatalf("read %q with %d skipped, want the fragment skipped, then %s", got, live.Skipped(), next)
	}
}

// TestReadIncremental pins the reader: each Read hands over only lines
// appended since the last one, holds back an unterminated tail until its
// terminator arrives, skips blank lines, counts rejected lines, and
// carries a line longer than its read buffer whole. A closed log refuses
// Append and Read, and closes and syncs as a no-op.
func TestReadIncremental(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := Open(path, "rl", false)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	long := strings.Repeat("y", 3*readChunk)
	for i, step := range []struct {
		write string
		want  []string
	}{
		{"a\n\n!bad\n  \nb-part", []string{"a", "!bad"}},
		{"-done\n" + long, []string{"b-part-done"}},
		{"\nc\n", []string{long, "c"}},
	} {
		if _, err := raw.WriteString(step.write); err != nil {
			t.Fatal(err)
		}
		var got []string
		if err := l.Read(func(line []byte) bool {
			got = append(got, string(line))
			return line[0] != '!'
		}); err != nil {
			t.Fatal(err)
		}
		if strings.Join(got, "|") != strings.Join(step.want, "|") || l.Skipped() != 1 {
			t.Fatalf("read %d: %d lines, Skipped=%d; want %d lines, Skipped=1", i, len(got), l.Skipped(), len(step.want))
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l.Append([]byte("d")) == nil || l.Read(func([]byte) bool { return true }) == nil {
		t.Fatal("Append or Read on a closed log succeeded")
	}
	if l.Sync() != nil || l.Close() != nil {
		t.Fatal("Sync and Close on a closed log must be no-ops")
	}
}

package failpoint

import (
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
)

func TestUnarmedPassThrough(t *testing.T) {
	Disarm()
	var buf bytes.Buffer
	n, err := Write("x.append", &buf, []byte("hello\n"))
	if err != nil || n != 6 {
		t.Fatalf("unarmed Write = (%d, %v), want (6, nil)", n, err)
	}
	if buf.String() != "hello\n" {
		t.Fatalf("unarmed Write wrote %q", buf.String())
	}
	if Armed() {
		t.Fatal("Armed() = true after Disarm")
	}
	CrashIf("x.crash", "any") // must not exit
	if Fired("x.append") != 0 {
		t.Fatal("unarmed Fired nonzero")
	}
}

func TestArmParseErrors(t *testing.T) {
	defer Disarm()
	for _, spec := range []string{
		"",
		"noequals",
		"site=frobnicate",
		"site=err@0",
		"site=err@x",
		"site=err:notkey=v",
	} {
		if err := Arm(spec); err == nil {
			t.Errorf("Arm(%q) accepted", spec)
		}
	}
}

func TestErrAction(t *testing.T) {
	defer Disarm()
	if err := Arm("j.append=err"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := Write("j.append", &buf, []byte("payload\n"))
	var fe *Error
	if !errors.As(err, &fe) || fe.Site != "j.append" || fe.Action != ActionErr {
		t.Fatalf("Write = (%d, %v), want typed *Error", n, err)
	}
	if buf.Len() != 0 {
		t.Fatalf("err action wrote %d bytes, want 0", buf.Len())
	}
	// Fires exactly once by default.
	if _, err := Write("j.append", &buf, []byte("payload\n")); err != nil {
		t.Fatalf("second call fired: %v", err)
	}
	if Fired("j.append") != 1 {
		t.Fatalf("Fired = %d, want 1", Fired("j.append"))
	}
}

func TestENOSPCWritesTornHalf(t *testing.T) {
	defer Disarm()
	if err := Arm("l.append=enospc"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	p := []byte("0123456789\n")
	n, err := Write("l.append", &buf, p)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("err = %v, want ENOSPC in chain", err)
	}
	if n != len(p)/2 || buf.Len() != len(p)/2 {
		t.Fatalf("wrote %d bytes (reported %d), want torn half %d", buf.Len(), n, len(p)/2)
	}
}

func TestShortWrite(t *testing.T) {
	defer Disarm()
	if err := Arm("l.append=short"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, err := Write("l.append", &buf, []byte("0123456789\n"))
	if !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("err = %v, want ErrShortWrite in chain", err)
	}
}

func TestCallCountAndSticky(t *testing.T) {
	defer Disarm()
	if err := Arm("c.add=err@3"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i := 1; i <= 5; i++ {
		_, err := Write("c.add", &buf, []byte("x\n"))
		if (i == 3) != (err != nil) {
			t.Fatalf("call %d: err = %v", i, err)
		}
	}
	if err := Arm("c.add=err@2+"); err != nil {
		t.Fatal(err)
	}
	fails := 0
	for i := 1; i <= 5; i++ {
		if _, err := Write("c.add", &buf, []byte("x\n")); err != nil {
			fails++
		}
	}
	if fails != 4 {
		t.Fatalf("sticky @2+ fired %d of 5 calls, want 4", fails)
	}
}

func TestSkipAction(t *testing.T) {
	defer Disarm()
	if err := Arm("j.sync=skip"); err != nil {
		t.Fatal(err)
	}
	// Sync with skip: reports success, never touches the file.
	if err := Sync("j.sync", failingSyncer{}); err != nil {
		t.Fatalf("skip Sync = %v", err)
	}
	// Write with skip: lies about success, writes nothing.
	if err := Arm("j.append=skip"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := Write("j.append", &buf, []byte("gone\n"))
	if err != nil || n != 5 || buf.Len() != 0 {
		t.Fatalf("skip Write = (%d, %v) with %d bytes out", n, err, buf.Len())
	}
}

type failingSyncer struct{}

func (failingSyncer) Sync() error { return errors.New("real sync ran") }

func TestSyncErrAction(t *testing.T) {
	defer Disarm()
	if err := Arm("cp.flush=enospc"); err != nil {
		t.Fatal(err)
	}
	err := Sync("cp.flush", failingSyncer{})
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Sync err = %v, want ENOSPC", err)
	}
}

func TestKeyedSite(t *testing.T) {
	defer Disarm()
	if err := Arm("s.claimed=err:key=bad-point"); err != nil {
		t.Fatal(err)
	}
	// CrashIf with non-matching key must not fire (and err action never
	// crashes anyway); exercise fire() keying via Check-style matching.
	if action, _ := fire("s.claimed", "good-point"); action != "" {
		t.Fatalf("non-matching key fired %q", action)
	}
	if action, _ := fire("s.claimed", "bad-point"); action != ActionErr {
		t.Fatalf("matching key fired %q, want err", action)
	}
}

// TestCrashExits re-executes the test binary with a crash schedule armed
// through the environment and expects death with CrashExitCode — the same
// transport a chaos drill uses to crash forked campaign workers.
func TestCrashExits(t *testing.T) {
	if os.Getenv("FAILPOINT_CRASH_HELPER") == "1" {
		var buf bytes.Buffer
		Write("h.append", &buf, []byte("torn line that never finishes\n"))
		os.Exit(0) // unreachable when the schedule works
	}
	cmd := exec.Command(os.Args[0], "-test.run", "TestCrashExits")
	cmd.Env = append(os.Environ(),
		"FAILPOINT_CRASH_HELPER=1",
		EnvVar+"=h.append=crash")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != CrashExitCode {
		t.Fatalf("helper exited %v (output %q), want exit %d", err, out, CrashExitCode)
	}
}

// TestEnvBadScheduleExits pins that a malformed VSV_FAILPOINTS aborts the
// process instead of silently running unarmed.
func TestEnvBadScheduleExits(t *testing.T) {
	if os.Getenv("FAILPOINT_BADENV_HELPER") == "1" {
		os.Exit(0) // init should have exited already
	}
	cmd := exec.Command(os.Args[0], "-test.run", "TestEnvBadScheduleExits")
	cmd.Env = append(os.Environ(),
		"FAILPOINT_BADENV_HELPER=1",
		EnvVar+"=garbage")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("helper exited %v, want exit 2", err)
	}
	if !strings.Contains(string(out), "failpoint") {
		t.Fatalf("no diagnostic in output %q", out)
	}
}

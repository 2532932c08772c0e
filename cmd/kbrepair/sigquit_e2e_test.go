//go:build unix

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"kbrepair/internal/obs/flight"
)

// buildKBRepair compiles the kbrepair binary into a temp dir. The e2e tests
// below exercise process-level behaviour (signals, exit codes) that cannot
// be observed in-process.
func buildKBRepair(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping binary build in -short mode")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	bin := filepath.Join(t.TempDir(), "kbrepair")
	cmd := exec.Command(goBin, "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// syncBuffer lets the stdout-copier goroutine and the polling test share a
// buffer without racing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSIGQUITLeavesParseableBundle starts an interactive repair session,
// waits until it is blocked on a question, sends SIGQUIT and verifies the
// process exits with status 2 leaving a bundle that kbdump/ReadBundle can
// parse — the "operator hits ctrl-\ on a hung session" acceptance path.
func TestSIGQUITLeavesParseableBundle(t *testing.T) {
	bin := buildKBRepair(t)
	kbPath := writeKB(t, inconsistentKB)
	bundleDir := filepath.Join(t.TempDir(), "bundle")

	cmd := exec.Command(bin, "-kb", kbPath, "-debug-bundle", bundleDir)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	defer stdin.Close()
	var out syncBuffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Wait for the session to block on the first question prompt.
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(out.String(), "choose a fix") {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("no question prompt within deadline; output:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := cmd.Process.Signal(syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("expected exit error, got %v; output:\n%s", err, out.String())
	}
	if code := ee.ExitCode(); code != 2 {
		t.Fatalf("expected exit status 2, got %d; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "goroutine ") {
		t.Errorf("SIGQUIT should print goroutine stacks to stderr; output:\n%s", out.String())
	}

	b, err := flight.ReadBundle(bundleDir)
	if err != nil {
		t.Fatalf("bundle left by SIGQUIT is not parseable: %v", err)
	}
	if b.Reason != "signal:quit" {
		t.Errorf("bundle reason = %q, want %q", b.Reason, "signal:quit")
	}
	kinds := make(map[string]bool)
	open := make(map[string]bool)
	for _, raw := range b.Events {
		var m struct {
			Kind string `json:"kind"`
			Open bool   `json:"open"`
		}
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("unparseable event %s: %v", raw, err)
		}
		kinds[m.Kind] = true
		open[m.Kind] = open[m.Kind] || m.Open
	}
	for _, want := range []string{"inquiry.run", "inquiry.question", "flight.bundle_dump"} {
		if !kinds[want] {
			t.Errorf("bundle missing %q event; kinds present: %v", want, kinds)
		}
	}
	// The session hung on a question: the bundle must show it pending.
	if !open["inquiry.question"] || !open["inquiry.user_answer"] {
		t.Errorf("bundle does not show the pending question open; open kinds: %v", open)
	}
	// The trace digest comes from the same ring, -trace or not.
	if b.Trace == nil {
		t.Error("bundle of a run without -trace has no trace section")
	}
	if len(b.KBDigest) == 0 {
		t.Error("bundle missing the KB digest section")
	}
	if b.Goroutines == "" {
		t.Error("bundle missing goroutine stacks")
	}
}

// TestFlagValidationExitCode verifies the process-level contract of satellite
// flag validation: explicit nonsense values are rejected with a one-line
// stderr message and exit status 2, before any work starts.
func TestFlagValidationExitCode(t *testing.T) {
	bin := buildKBRepair(t)
	kbPath := writeKB(t, inconsistentKB)

	cases := []struct {
		name string
		args []string
		want string
	}{
		{"workers zero", []string{"-kb", kbPath, "-auto", "-workers", "0"}, "-workers must be positive"},
		{"workers negative", []string{"-kb", kbPath, "-auto", "-workers", "-3"}, "-workers must be positive"},
		{"sample interval zero", []string{"-kb", kbPath, "-auto", "-timeseries", os.DevNull, "-sample-interval", "0s"}, "-sample-interval must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, tc.args...)
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("expected exit error, got %v; output:\n%s", err, out)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Fatalf("expected exit status 2, got %d; output:\n%s", code, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("stderr missing %q:\n%s", tc.want, out)
			}
		})
	}
}

package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Smoke test: build the command and run it end to end on a small program.

func buildCCRun(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ccrun")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

const ccrunProg = `int main() {
    print_int(6 * 9);
    print_str("\n");
    return 0;
}
`

func TestCCRunSmoke(t *testing.T) {
	bin := buildCCRun(t)
	src := filepath.Join(t.TempDir(), "prog.c")
	if err := os.WriteFile(src, []byte(ccrunProg), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-validate", src},
		{"-O=false", src},
		{"-safe", "-post", "-machine", "p90", src},
	} {
		out, err := exec.Command(bin, args...).Output()
		if err != nil {
			t.Fatalf("ccrun %v: %v", args, err)
		}
		if string(out) != "54\n" {
			t.Fatalf("ccrun %v printed %q, want %q", args, out, "54\n")
		}
	}
	// -S prints a listing instead of running.
	out, err := exec.Command(bin, "-S", src).Output()
	if err != nil {
		t.Fatalf("ccrun -S: %v", err)
	}
	if !strings.Contains(string(out), "main:") {
		t.Fatalf("ccrun -S listing has no main:\n%s", out)
	}
}

const runawayProg = `int main() {
    int i = 0;
    while (1) { i = i + 1; }
    return i;
}
`

// The new robustness flags: a runaway program must be stopped by both the
// wall-clock budget and the instruction budget.
func TestCCRunTimeoutAndStepLimit(t *testing.T) {
	bin := buildCCRun(t)
	src := filepath.Join(t.TempDir(), "loop.c")
	if err := os.WriteFile(src, []byte(runawayProg), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bin, "-timeout", "200ms", src)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 124 {
		t.Fatalf("-timeout: err = %v, want exit status 124; stderr: %s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "timeout") {
		t.Fatalf("-timeout stderr: %q", stderr.String())
	}

	cmd = exec.Command(bin, "-max-steps", "100000", src)
	stderr.Reset()
	cmd.Stderr = &stderr
	err = cmd.Run()
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("-max-steps: err = %v, want exit status 1", err)
	}
	if !strings.Contains(stderr.String(), "instruction budget") {
		t.Fatalf("-max-steps stderr: %q", stderr.String())
	}
}

const allocProg = `int main() {
    int i;
    for (i = 0; i < 50; i = i + 1) {
        char *p = (char *)GC_malloc(32);
        *p = 'a';
    }
    print_str("done\n");
    return 0;
}
`

// -faults wires the fault-injection registry into the run: a simulated
// allocation failure must abort the program deterministically, and the
// same flags must reproduce the same outcome.
func TestCCRunFaultInjection(t *testing.T) {
	bin := buildCCRun(t)
	src := filepath.Join(t.TempDir(), "alloc.c")
	if err := os.WriteFile(src, []byte(allocProg), 0o644); err != nil {
		t.Fatal(err)
	}

	// Control: without -faults the program completes.
	out, err := exec.Command(bin, src).Output()
	if err != nil || string(out) != "done\n" {
		t.Fatalf("control run: %v %q", err, out)
	}

	run := func() (int, string) {
		cmd := exec.Command(bin, "-faults", "gc.alloc=error,after=10,msg=flag-oom", "-fault-seed", "7", src)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("err = %v, want exit error; stderr: %s", err, stderr.String())
		}
		return ee.ExitCode(), stderr.String()
	}
	code1, msg1 := run()
	code2, msg2 := run()
	if code1 != 1 || !strings.Contains(msg1, "flag-oom") {
		t.Fatalf("fault run: exit %d, stderr %q", code1, msg1)
	}
	if code1 != code2 || msg1 != msg2 {
		t.Fatalf("same seed diverged:\n%q\nvs\n%q", msg1, msg2)
	}

	// A malformed spec is a usage error.
	err = exec.Command(bin, "-faults", "nonsense", src).Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("bad spec: err = %v, want exit status 2", err)
	}
}

// A negative -heap-top is a usage error (exit 2), not a panic in the
// retainer report.
func TestCCRunRejectsNegativeHeapTop(t *testing.T) {
	bin := buildCCRun(t)
	src := filepath.Join(t.TempDir(), "prog.c")
	if err := os.WriteFile(src, []byte(ccrunProg), 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr strings.Builder
	cmd := exec.Command(bin, "-heap-profile", "-heap-top", "-1", src)
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("-heap-top -1: err = %v, want exit status 2; stderr %q", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-heap-top") {
		t.Fatalf("-heap-top -1: stderr %q does not name the flag", stderr.String())
	}
}

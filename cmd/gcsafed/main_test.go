package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"gcsafety/internal/server"
)

// TestServeSmoke is the end-to-end daemon gate (`make serve-smoke`): build
// the real binary, start it on a random port, hit every endpoint, and
// assert the /metrics counters advanced.
func TestServeSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "gcsafed")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-timeout", "20s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = &bytes.Buffer{}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()

	// The daemon prints "gcsafed: listening on host:port" once bound.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no startup line; stderr: %s", cmd.Stderr)
	}
	line := sc.Text()
	i := strings.LastIndex(line, " ")
	if i < 0 || !strings.Contains(line, "listening on") {
		t.Fatalf("unexpected startup line: %q", line)
	}
	base := "http://" + line[i+1:]

	post := func(path string, body any) (int, []byte) {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, data
	}
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, data
	}

	if code, data := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz: %d %s", code, data)
	}
	var before server.Snapshot
	if code, data := get("/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics: %d %s", code, data)
	} else if err := json.Unmarshal(data, &before); err != nil {
		t.Fatalf("/metrics JSON: %v", err)
	}

	src := `int main() { print_str("smoke\n"); return 0; }`
	endpoints := []struct {
		path string
		body any
	}{
		{"/v1/annotate", map[string]any{"name": "s.c", "source": src}},
		{"/v1/check", map[string]any{"name": "s.c", "source": src}},
		{"/v1/compile", map[string]any{"name": "s.c", "source": src, "optimize": true, "annotate": "safe"}},
		{"/v1/run", map[string]any{"name": "s.c", "source": src, "optimize": true, "annotate": "safe", "validate": true}},
		{"/v1/matrix", map[string]any{"seed": 7, "steps": 4, "machines": []string{"ss10"}}},
	}
	for _, ep := range endpoints {
		code, data := post(ep.path, ep.body)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", ep.path, code, data)
		}
	}

	// Second identical run must be served from the artifact cache.
	if _, data := post("/v1/run", endpoints[3].body); !bytes.Contains(data, []byte(`"cache_hit": true`)) {
		t.Fatalf("repeated run not a cache hit: %s", data)
	}

	var after server.Snapshot
	if code, data := get("/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics: %d %s", code, data)
	} else if err := json.Unmarshal(data, &after); err != nil {
		t.Fatalf("/metrics JSON: %v", err)
	}
	for _, ep := range endpoints {
		if after.Endpoints[ep.path].Requests <= before.Endpoints[ep.path].Requests {
			t.Errorf("%s counter did not advance: %+v", ep.path, after.Endpoints[ep.path])
		}
	}
	if after.Cache.Misses == 0 || after.Cache.Hits == 0 {
		t.Errorf("cache counters did not advance: %+v", after.Cache)
	}
	// The repeated run shared the first one's execution, and only
	// computed runs count.
	if after.Runs.Programs != before.Runs.Programs+1 || after.Runs.Collections == 0 && after.Runs.Cycles == 0 {
		t.Errorf("run/GC counters did not advance by one computed run: %+v", after.Runs)
	}
	if after.Compiles == 0 {
		t.Errorf("compile counter did not advance: %+v", after.Compiles)
	}

	// Graceful shutdown: SIGTERM drains and exits 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v; stderr: %s", err, cmd.Stderr)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down after SIGTERM")
	}
}

func TestUsageError(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "gcsafed")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	err := exec.Command(bin, "positional").Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("err = %v, want exit status 2", err)
	}
}

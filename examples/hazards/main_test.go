package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"gcsafety/internal/workloads"
)

// The golden files are the promoted form of the hazard workloads: each
// testdata/<name>.c and .want pair must match internal/workloads'
// catalogue exactly, so the two never drift apart.
func TestGoldenFilesMatchWorkloadCatalogue(t *testing.T) {
	for _, w := range workloads.Hazards() {
		src, err := os.ReadFile(filepath.Join("testdata", w.Name+".c"))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if string(src) != w.Source {
			t.Errorf("%s.c has drifted from workloads.Hazards(); regenerate it from the catalogue", w.Name)
		}
		want, err := os.ReadFile(filepath.Join("testdata", w.Name+".want"))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if string(want) != w.Want {
			t.Errorf("%s.want has drifted from workloads.Hazards(): file %q, catalogue %q",
				w.Name, want, w.Want)
		}
	}
}

// Smoke test: the example must show both temporal bugs detected, the safe
// builds reproducing the golden outputs, and no silent divergence anywhere.
func TestHazardsExampleSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "hazards")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin)
	cmd.Dir = "." // golden files load relative to the example directory
	out, err = cmd.Output()
	if err != nil {
		t.Fatalf("hazards example: %v", err)
	}
	text := string(out)
	if strings.Count(text, "DETECTED") < 2 {
		t.Fatalf("example detected fewer than the two temporal bugs:\n%s", text)
	}
	if strings.Count(text, "ok, golden output") < 3 {
		t.Fatalf("safe builds did not all reproduce their golden outputs:\n%s", text)
	}
	if strings.Contains(text, "SILENT DIVERGENCE") {
		t.Fatalf("a build silently diverged:\n%s", text)
	}
}

package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// update regenerates the golden files instead of comparing against them:
//
//	go test ./cmd/vosablate -update
var update = flag.Bool("update", false, "rewrite golden files from current output")

// TestGolden runs all five studies at a small pattern count and pins
// stdout and stderr byte for byte against testdata/. The studies are
// seeded and their sweeps fold results in a fixed order, so the output
// does not depend on GOMAXPROCS.
func TestGolden(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "vosablate")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/vosablate").CombinedOutput(); err != nil {
		t.Fatalf("build vosablate: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-patterns", "200", "-seed", "1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("vosablate: %v\n%s", err, stderr.Bytes())
	}
	checkGolden(t, "all.stdout", stdout.Bytes())
	checkGolden(t, "all.stderr", stderr.Bytes())
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden (regenerate with -update only for a deliberate change):\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

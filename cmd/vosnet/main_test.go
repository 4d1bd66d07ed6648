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
//	go test ./cmd/vosnet -update
var update = flag.Bool("update", false, "rewrite golden files from current output")

// TestGolden runs the built command through every mode in one working
// directory, later cases reading the netlist an earlier one wrote, and
// pins stdout, stderr and each written file byte for byte against
// testdata/.
func TestGolden(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "vosnet")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/vosnet").CombinedOutput(); err != nil {
		t.Fatalf("build vosnet: %v\n%s", err, out)
	}
	dir := t.TempDir()
	cases := []struct {
		name  string
		args  []string
		wrote string // file the case writes into dir, if any
	}{
		{"gen_rca8", []string{"-gen", "rca8"}, ""},
		{"gen_rca8_seed7", []string{"-gen", "rca8", "-seed", "7"}, ""},
		{"gen_bka16", []string{"-gen", "bka16", "-o", "bka16.vnet"}, "bka16.vnet"},
		{"stat_bka16", []string{"-stat", "bka16.vnet"}, ""},
		{"spice_bka16", []string{"-spice", "bka16.vnet", "-tclk", "0.2", "-vdd", "0.5", "-vbb", "2"}, ""},
		// A late point: events still fire after capture, so the tracer
		// runs past the marker.
		{"vcd_bka16", []string{"-vcd", "bka16.vnet", "-a", "65535", "-b", "1",
			"-tclk", "0.2", "-vdd", "0.5", "-vbb", "2", "-o", "wave.vcd"}, "wave.vcd"},
		// Zero inputs: the XNOR2 gates settle at 1, so $dumpvars must
		// hold the settled state, not all zeros.
		{"gen_csel8", []string{"-gen", "csel8", "-o", "c8.vnet"}, "c8.vnet"},
		{"vcd_csel8", []string{"-vcd", "c8.vnet", "-a", "0", "-b", "0", "-tclk", "1", "-vdd", "1", "-o", "c8.vcd"}, "c8.vcd"},
	}
	for _, c := range cases {
		cmd := exec.Command(bin, c.args...)
		cmd.Dir = dir
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s: %v\n%s", c.name, err, stderr.Bytes())
		}
		checkGolden(t, c.name+".stdout", stdout.Bytes())
		checkGolden(t, c.name+".stderr", stderr.Bytes())
		if c.wrote != "" {
			got, err := os.ReadFile(filepath.Join(dir, c.wrote))
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, c.name+"."+c.wrote, got)
		}
	}
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

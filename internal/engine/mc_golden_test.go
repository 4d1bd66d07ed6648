package engine

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/charz"
	"repro/internal/triad"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/mc_golden.json")

// mcGolden pins the bytes of the model replay path: Monte Carlo points
// of every kernel on the 16-bit RCA and BKA, and the points of a
// model-backend sweep of RCA8 and RCA16, keyed by bench name.
type mcGolden struct {
	MC         []MCPoint                 `json:"mc"`
	ModelSweep map[string][]PointSummary `json:"modelSweep"`
}

// goldenMCTriads are Table III operating points of the 16-bit adders
// (seed 1) whose calibrated hardware word-error rate is non-zero, from
// mild to near-total, so the replay's truncating draws are exercised.
var goldenMCTriads = []struct {
	arch   string
	triads []triad.Triad
}{
	{"RCA", []triad.Triad{{Tclk: 0.262, Vdd: 0.9}, {Tclk: 0.262, Vdd: 0.4, Vbb: 2}, {Tclk: 0.558, Vdd: 0.5}}},
	{"BKA", []triad.Triad{{Tclk: 0.166, Vdd: 0.9}}},
}

// TestMCGolden compares the model replay path against
// testdata/mc_golden.json. Run `go test ./internal/engine -run
// TestMCGolden -update` to rewrite the fixture after a deliberate
// change of results.
func TestMCGolden(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	var got mcGolden
	for _, g := range goldenMCTriads {
		cfg := charz.Config{Arch: mustArch(g.arch), Width: apps.Word, Patterns: 2000, Seed: 1, Backend: charz.BackendModel}
		prep, err := e.Prepare(t.Context(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range g.triads {
			if !slices.Contains(prep.TriadSet(), tr) {
				t.Fatalf("%s16 %s is not a Table III triad", g.arch, tr.Label())
			}
			trained, err := e.calib.Point(prep, tr)
			if err != nil {
				t.Fatal(err)
			}
			if trained.HWWordErrorRate == 0 {
				t.Fatalf("%s16 %s: calibrated hardware word-error rate is zero", g.arch, tr.Label())
			}
		}
		for _, k := range apps.MCKernels() {
			job := runMCJob(t, e, MCRequest{
				Kernels: []string{k.Name},
				Arch:    g.arch,
				Seed:    1,
				Samples: 2 * int64(k.RepSize),
				Policy:  PolicyExplicit,
				Triads:  g.triads,
			})
			got.MC = append(got.MC, job.Points...)
		}
	}

	id, err := e.Submit(Request{Arches: []string{"RCA"}, Widths: []int{8, 16}, Seed: 1, Backend: "model"})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := e.Wait(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Status != StatusDone {
		t.Fatalf("model sweep %s: %s (%s)", id, sw.Status, sw.Error)
	}
	got.ModelSweep = make(map[string][]PointSummary)
	for _, op := range sw.Results {
		got.ModelSweep[op.Bench] = op.Points
	}

	body, err := json.MarshalIndent(got, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	body = append(body, '\n')
	path := filepath.Join("testdata", "mc_golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if !bytes.Equal(body, want) {
		gl, wl := bytes.Split(body, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("%s drifted from golden at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s drifted from golden: %d lines, want %d", path, len(gl), len(wl))
	}
}

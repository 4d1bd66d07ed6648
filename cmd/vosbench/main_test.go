package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
BenchmarkSimStepRCA8-8   	    2000	      2117 ns/op	     162 B/op	       3 allocs/op
BenchmarkSimStepDenseRCA8 	    2000	      1673 ns/op	       4 B/op	       0 allocs/op
BenchmarkFig8/RCA8        	       1	 114120000 ns/op	       199.8 fJ/op@nominal	        43.00 sim-points	 2943880 B/op	   10152 allocs/op
--- BENCH: BenchmarkFig8/RCA8
    bench_test.go:225: Fig 8 8-bit RCA:
PASS
ok  	repro	1.234s
`

func TestParse(t *testing.T) {
	rs := Parse(sample)
	if len(rs) != 3 {
		t.Fatalf("parsed %d results, want 3", len(rs))
	}
	if rs[0].Name != "SimStepRCA8" || rs[0].Iters != 2000 || rs[0].NsOp != 2117 {
		t.Fatalf("first result: %+v", rs[0])
	}
	if rs[0].AllocsOp == nil || *rs[0].AllocsOp != 3 {
		t.Fatalf("allocs/op: %+v", rs[0].AllocsOp)
	}
	if rs[2].Name != "Fig8/RCA8" {
		t.Fatalf("sub-benchmark name: %q", rs[2].Name)
	}
	if rs[2].Metrics["fJ/op@nominal"] != 199.8 || rs[2].Metrics["sim-points"] != 43 {
		t.Fatalf("custom metrics: %+v", rs[2].Metrics)
	}
	if rs[2].BOp == nil || *rs[2].BOp != 2943880 {
		t.Fatalf("B/op: %+v", rs[2].BOp)
	}
}

func TestParseIgnoresGarbage(t *testing.T) {
	if rs := Parse("BenchmarkBroken\tnot-a-number 12 ns/op\nrandom text\n"); len(rs) != 0 {
		t.Fatalf("parsed garbage: %+v", rs)
	}
}

// writeBaseline commits a synthetic baseline file for the diff-gate tests.
func writeBaseline(t *testing.T, results []Result) string {
	t.Helper()
	data, err := json.Marshal(File{Benchmarks: results})
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDiffGate(t *testing.T) {
	base := writeBaseline(t, []Result{
		{Name: "SimStepDenseRCA8", NsOp: 1000},
		{Name: "Fig8/RCA8", NsOp: 100e6},
		{Name: "EvaluateBatch", NsOp: 500}, // outside the filter
	})
	filter := "^(SimStep|Fig8)"

	// Within threshold, plus an ungated bench regressing wildly, plus a
	// brand-new gated bench: all pass.
	fresh := []Result{
		{Name: "SimStepDenseRCA8", NsOp: 1100},
		{Name: "Fig8/RCA8", NsOp: 90e6},
		{Name: "EvaluateBatch", NsOp: 5000},
		{Name: "SimStepWordRCA8", NsOp: 7000},
	}
	var report bytes.Buffer
	if _, err := Diff(&report, base, fresh, filter, 0.20); err != nil {
		t.Fatalf("within-threshold diff failed: %v", err)
	}
	if out := report.String(); !strings.Contains(out, "not gated") || !strings.Contains(out, "no gated regressions") {
		t.Fatalf("diff report:\n%s", out)
	}

	// A gated benchmark beyond the threshold fails, and its name comes
	// back in the profilable-regression list.
	fresh[0].NsOp = 1300
	report.Reset()
	regressed, err := Diff(&report, base, fresh, filter, 0.20)
	if err == nil || !strings.Contains(err.Error(), "SimStepDenseRCA8") {
		t.Fatalf("regression not flagged: %v", err)
	}
	if len(regressed) != 1 || regressed[0] != "SimStepDenseRCA8" {
		t.Fatalf("profilable regressions: %v", regressed)
	}
	if !strings.Contains(report.String(), "REGRESSED") {
		t.Fatalf("diff report:\n%s", report.String())
	}

	// A gated baseline benchmark missing from the fresh run fails too,
	// but cannot be profiled: it must not appear in the returned list.
	fresh[0] = Result{Name: "Other", NsOp: 1}
	regressed, err = Diff(io.Discard, base, fresh, filter, 0.20)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("missing benchmark not flagged: %v", err)
	}
	if len(regressed) != 0 {
		t.Fatalf("missing benchmark reported as profilable: %v", regressed)
	}
}

// TestBestSamplesAllocs: the collapsed sample carries the smallest
// allocs/op of any sample, not that of the fastest one.
func TestBestSamplesAllocs(t *testing.T) {
	allocs := func(v float64) *float64 { return &v }
	rs := BestSamples([]Result{
		{Name: "Fig8/RCA8", NsOp: 9e6, AllocsOp: allocs(6100)}, // warm-up sample
		{Name: "Fig8/RCA8", NsOp: 9.5e6, AllocsOp: allocs(4400)},
		{Name: "Fig8/RCA8", NsOp: 9.2e6, AllocsOp: allocs(4410)},
	})
	if len(rs) != 1 || rs[0].NsOp != 9e6 || rs[0].AllocsOp == nil || *rs[0].AllocsOp != 4400 {
		t.Fatalf("collapsed sample %+v (allocs %v)", rs, rs[0].AllocsOp)
	}
}

func TestBestSamples(t *testing.T) {
	rs := BestSamples([]Result{
		{Name: "A", NsOp: 300},
		{Name: "B", NsOp: 10},
		{Name: "A", NsOp: 100},
		{Name: "A", NsOp: 200},
	})
	if len(rs) != 2 {
		t.Fatalf("collapsed to %d results, want 2", len(rs))
	}
	if rs[0].Name != "A" || rs[0].NsOp != 100 {
		t.Fatalf("best A sample: %+v", rs[0])
	}
	if rs[1].Name != "B" || rs[1].NsOp != 10 {
		t.Fatalf("order not preserved: %+v", rs[1])
	}
}

func TestDiffBadInputs(t *testing.T) {
	if _, err := Diff(io.Discard, "does-not-exist.json", nil, ".", 0.2); err == nil {
		t.Fatal("missing baseline accepted")
	}
	base := writeBaseline(t, nil)
	if _, err := Diff(io.Discard, base, nil, "(", 0.2); err == nil {
		t.Fatal("bad filter regex accepted")
	}
}

// TestDiffGateAllocs: a gated benchmark whose allocs/op grows past the
// threshold fails the gate even when its ns/op held, and one within the
// threshold passes.
func TestDiffGateAllocs(t *testing.T) {
	allocs := func(v float64) *float64 { return &v }
	base := writeBaseline(t, []Result{
		{Name: "EngineWarmSweep", NsOp: 1e6, AllocsOp: allocs(900)},
		{Name: "SimStepDenseRCA8", NsOp: 1000, AllocsOp: allocs(0)},
		{Name: "EvaluateBatch", NsOp: 500, AllocsOp: allocs(1)}, // outside the filter
	})
	filter := "^(SimStep|EngineWarmSweep)"

	within := []Result{
		{Name: "EngineWarmSweep", NsOp: 0.9e6, AllocsOp: allocs(1080)},
		{Name: "SimStepDenseRCA8", NsOp: 1000, AllocsOp: allocs(0)},
		{Name: "EvaluateBatch", NsOp: 500, AllocsOp: allocs(100)},
	}
	var report bytes.Buffer
	if _, err := Diff(&report, base, within, filter, 0.20); err != nil {
		t.Fatalf("allocs within the threshold failed the gate: %v\n%s", err, report.String())
	}
	if !strings.Contains(report.String(), "900 -> 1080 allocs/op") {
		t.Fatalf("diff report:\n%s", report.String())
	}

	for _, c := range []struct {
		name   string
		allocs float64
	}{{"EngineWarmSweep", 1081}, {"SimStepDenseRCA8", 1}} {
		fresh := append([]Result(nil), within...)
		for i := range fresh {
			if fresh[i].Name == c.name {
				fresh[i].AllocsOp = allocs(c.allocs)
			}
		}
		report.Reset()
		regressed, err := Diff(&report, base, fresh, filter, 0.20)
		if err == nil || !strings.Contains(err.Error(), c.name+" (allocs/op)") {
			t.Fatalf("%s at %g allocs/op not flagged: %v", c.name, c.allocs, err)
		}
		if len(regressed) != 1 || regressed[0] != c.name {
			t.Fatalf("profilable regressions: %v", regressed)
		}
		if !strings.Contains(report.String(), "ALLOCS REGRESSED") {
			t.Fatalf("diff report:\n%s", report.String())
		}
	}
}

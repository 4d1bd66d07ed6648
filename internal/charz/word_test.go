package charz

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/synth"
	"repro/internal/triad"
)

// runBothPaths characterizes cfg on the default wide path and again
// with the scalar reference loop forced, and requires bit-identical
// triad results: same error-statistics snapshots, same energy bits, same
// late fractions. Run super-groups a multi-triad set, whose fresh walks
// record retime logs, so every triad is also run solo through RunTriad
// (a one-triad group, walked without the log) and held to the same
// reference.
func runBothPaths(t *testing.T, cfg Config) {
	t.Helper()
	if forceScalarReference {
		t.Fatal("forceScalarReference left set by another test")
	}
	grouped, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	solo := make([]TriadResult, len(grouped.Triads))
	for i := range grouped.Triads {
		res, err := prep.RunTriad(grouped.Triads[i].Triad)
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = *res
	}
	forceScalarReference = true
	defer func() { forceScalarReference = false }()
	scalar, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []struct {
		name   string
		triads []TriadResult
	}{{"grouped", grouped.Triads}, {"solo", solo}} {
		if len(path.triads) != len(scalar.Triads) {
			t.Fatalf("%s triad count %d, scalar %d", path.name, len(path.triads), len(scalar.Triads))
		}
		for i := range path.triads {
			w, s := &path.triads[i], &scalar.Triads[i]
			if !reflect.DeepEqual(w.Acc.Snapshot(), s.Acc.Snapshot()) {
				t.Errorf("%s %s: error stats diverged\nwide:   %+v\nscalar: %+v",
					path.name, w.Triad.Label(), w.Acc.Snapshot(), s.Acc.Snapshot())
			}
			if math.Float64bits(w.EnergyPerOpFJ) != math.Float64bits(s.EnergyPerOpFJ) {
				t.Errorf("%s %s: energy diverged: wide %v scalar %v",
					path.name, w.Triad.Label(), w.EnergyPerOpFJ, s.EnergyPerOpFJ)
			}
			if w.LateFraction != s.LateFraction {
				t.Errorf("%s %s: late fraction diverged: wide %v scalar %v",
					path.name, w.Triad.Label(), w.LateFraction, s.LateFraction)
			}
		}
	}
}

// speculativeTriads is a (Vdd, Tclk) grid around and beyond the paper's
// most aggressive operating points: every regime from error-free to
// capture-mid-wave, where per-lane late events and glitch energy differ
// pattern by pattern.
func speculativeTriads(cp float64) []triad.Triad {
	var set []triad.Triad
	for _, tclk := range []float64{cp * 1.05, cp * 0.6, cp * 0.3, cp * 0.12} {
		for _, vdd := range []float64{1.0, 0.7, 0.5} {
			set = append(set, triad.Triad{Tclk: tclk, Vdd: vdd, Vbb: 0})
		}
		set = append(set, triad.Triad{Tclk: tclk, Vdd: 0.45, Vbb: 2})
	}
	return set
}

// TestWordPathMatchesScalarPath is the flow-level half of the
// wide-engine parity argument: the full characterization — stimulus
// chaining across chunks, ragged final chunk (patterns not a multiple of
// 64), lane-accumulated statistics — must be bit-identical between the
// wide engine (grouped and solo) and the scalar reference loop, for both
// adder architectures across a speculative triad grid. 201 patterns put
// the solo path at K = 4 with a ragged tail.
func TestWordPathMatchesScalarPath(t *testing.T) {
	for _, arch := range []synth.Arch{synth.ArchRCA, synth.ArchBKA} {
		cfg := Config{
			Arch:     arch,
			Width:    8,
			Patterns: 201, // 3 full chunks + ragged 9-lane tail
			Seed:     23,
			Triads:   speculativeTriads(0.30),
		}
		runBothPaths(t, cfg)
	}
}

// TestWordPathSubChunkSweep covers sweeps smaller than one chunk, where
// the very first (and only) chunk is ragged and chains from the reset
// state; 37 patterns put the solo path at K = 1.
func TestWordPathSubChunkSweep(t *testing.T) {
	cfg := Config{
		Arch:     synth.ArchRCA,
		Width:    4,
		Patterns: 37,
		Seed:     5,
		Triads:   speculativeTriads(0.16),
	}
	runBothPaths(t, cfg)
}

// TestWordStepperSelection pins which configurations Groupable sends to
// the wide engine: the gate backend's two-vector protocol; streaming
// capture and the RC backend take the scalar loop (their chunked
// accumulation is covered by the golden parity suite).
func TestWordStepperSelection(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want bool
	}{
		{"gate", Config{Arch: synth.ArchRCA, Width: 4, Patterns: 10, Seed: 1}, true},
		{"gate-stream", Config{Arch: synth.ArchRCA, Width: 4, Patterns: 10, Seed: 1, Streaming: true}, false},
		{"rc", Config{Arch: synth.ArchRCA, Width: 4, Patterns: 10, Seed: 1, Backend: BackendRC}, false},
	} {
		p, err := Prepare(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Groupable(); got != tc.want {
			t.Errorf("%s: Groupable = %v, want %v", tc.name, got, tc.want)
		}
	}
}

package model

import (
	"testing"

	"repro/internal/charz"
	"repro/internal/synth"
	"repro/internal/triad"
)

// TestCalibratorMemoKey checks that the calibration memo keys on what
// calibration reads: Prepared values that share the netlist, seed and
// propagate probability share one training run whatever their pattern
// budget, while a different propagate probability or triad trains anew.
func TestCalibratorMemoKey(t *testing.T) {
	cfg := charz.Config{Arch: synth.ArchRCA, Width: 8, Patterns: 512, Seed: 1, Backend: charz.BackendModel}
	prep, err := charz.Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := NewCalibrator(DefaultSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := triad.Triad{Tclk: 0.2, Vdd: 0.7}
	point := func(p *charz.Prepared, tr triad.Triad) *Trained {
		t.Helper()
		tn, err := cal.Point(p, tr)
		if err != nil {
			t.Fatal(err)
		}
		return tn
	}
	// rebind shares prep's netlist under an edited Config, as the
	// engine's Prepare does for every caller.
	rebind := func(edit func(*charz.Config)) *charz.Prepared {
		cfg := prep.Config
		edit(&cfg)
		return &charz.Prepared{Config: cfg, Netlist: prep.Netlist, Report: prep.Report}
	}

	first := point(prep, tr)
	if got := point(rebind(func(c *charz.Config) { c.Patterns = 2000 }), tr); got != first {
		t.Error("a Prepared differing only in Patterns retrained the point")
	}
	if got := point(rebind(func(c *charz.Config) { c.PropagateP = 0.25 }), tr); got == first {
		t.Error("a different PropagateP was served the memoized model")
	}
	if got := point(prep, triad.Triad{Tclk: 0.2, Vdd: 0.6}); got == first {
		t.Error("a different triad was served the memoized model")
	}
}

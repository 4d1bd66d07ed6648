package vos_test

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/triad"
	"repro/vos"
)

// TestValidateRejectsNonFiniteOperatingValues: a NaN propagate
// probability and NaN or infinite operating values fail validation at
// every entry point, instead of passing it and failing mid-sweep when a
// cache key or result cannot encode them. The finite controls pass.
func TestValidateRejectsNonFiniteOperatingValues(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	ok := vos.Triad{Tclk: 0.3, Vdd: 0.8}
	cases := []struct {
		name     string
		validate func() error
		valid    bool
	}{
		{"request finite", engine.Request{PropagateP: 0.5, Policy: engine.PolicyVddGrid,
			Vdds: []float64{0.8}, VbbValues: []float64{2}}.Validate, true},
		{"request NaN propagate", engine.Request{PropagateP: nan}.Validate, false},
		{"request NaN grid Vdd", engine.Request{Policy: engine.PolicyVddGrid, Vdds: []float64{nan}}.Validate, false},
		{"request +Inf grid Vdd", engine.Request{Policy: engine.PolicyVddGrid, Vdds: []float64{inf}}.Validate, false},
		{"request NaN grid Vbb", engine.Request{Policy: engine.PolicyVddGrid, VbbValues: []float64{nan}}.Validate, false},
		{"request +Inf grid Vbb", engine.Request{Policy: engine.PolicyVddGrid, VbbValues: []float64{inf}}.Validate, false},
		{"request +Inf Tclk", engine.Request{Policy: engine.PolicyExplicit,
			Triads: []triad.Triad{{Tclk: inf, Vdd: 0.8}}}.Validate, false},
		{"mc finite", engine.MCRequest{Kernels: []string{"fir"}, Policy: engine.PolicyExplicit,
			Triads: []triad.Triad{{Tclk: 0.3, Vdd: 0.8}}}.Validate, true},
		{"mc +Inf Tclk", engine.MCRequest{Kernels: []string{"fir"}, Policy: engine.PolicyExplicit,
			Triads: []triad.Triad{{Tclk: inf, Vdd: 0.8}}}.Validate, false},
		{"mc +Inf Vdd", engine.MCRequest{Kernels: []string{"fir"}, Policy: engine.PolicyExplicit,
			Triads: []triad.Triad{{Tclk: 0.3, Vdd: inf}}}.Validate, false},
		{"mc +Inf Vbb", engine.MCRequest{Kernels: []string{"fir"}, Policy: engine.PolicyExplicit,
			Triads: []triad.Triad{{Tclk: 0.3, Vdd: 0.8, Vbb: inf}}}.Validate, false},
		{"spec finite", vos.NewSpec().PropagateP(0.5).Triads(ok).Validate, true},
		{"spec NaN propagate", vos.NewSpec().PropagateP(nan).Validate, false},
		{"spec +Inf triad", vos.NewSpec().Triads(vos.Triad{Tclk: inf, Vdd: 0.8}).Validate, false},
		{"spec +Inf grid Vdd", vos.NewSpec().VddGrid([]float64{inf}, nil).Validate, false},
		{"spec NaN grid Vbb", vos.NewSpec().VddGrid(nil, []float64{nan}).Validate, false},
		{"mc spec finite", vos.NewMCSpec("fir").Triads(ok).Validate, true},
		{"mc spec +Inf triad", vos.NewMCSpec("fir").Triads(vos.Triad{Tclk: inf, Vdd: 0.8}).Validate, false},
	}
	for _, tc := range cases {
		err := tc.validate()
		if tc.valid && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.valid && err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

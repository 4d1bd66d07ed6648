package charz_test

import (
	"math"
	"testing"

	"repro/internal/charz"
	"repro/internal/synth"
	"repro/vos"
)

// TestTable4Bands bins a characterization sweep into the paper's Table IV
// through vos.Operator.Table4, the one Table IV projection. It lives in
// an external test package because vos imports charz.
func TestTable4Bands(t *testing.T) {
	res, err := charz.Run(charz.Config{Arch: synth.ArchRCA, Width: 8, Patterns: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	op := vos.Operator{Arch: "RCA", Width: 8}
	for _, tr := range res.Triads {
		op.Points = append(op.Points, vos.Point{Triad: vos.Triad(tr.Triad), BER: tr.BER(),
			EnergyPerOpFJ: tr.EnergyPerOpFJ, Efficiency: tr.Efficiency})
	}
	bands := op.Table4()
	if len(bands) != 4 {
		t.Fatalf("bands = %d", len(bands))
	}
	if bands[0].Count == 0 {
		t.Fatal("no zero-BER triads")
	}
	// Zero-band best triad must actually have 0% BER (rounded).
	if int(math.Round(bands[0].BERAtMaxEff*100)) != 0 {
		t.Fatalf("band 0 best BER = %v", bands[0].BERAtMaxEff)
	}
	// Counts must not exceed the sweep size.
	total := 0
	for _, b := range bands {
		total += b.Count
	}
	if total > len(res.Triads) {
		t.Fatalf("band total %d > %d", total, len(res.Triads))
	}
	// Band label formatting.
	if vos.Table4Bands[0].String() != "0%" || vos.Table4Bands[1].String() != "1% to 10%" {
		t.Fatal("band labels wrong")
	}
}

package sim_test

import (
	"testing"

	"repro/internal/cell"
	"repro/internal/fdsoi"
	"repro/internal/sim"
	"repro/internal/sta"
	"repro/internal/synth"
)

// FuzzWideWalkMatchesScalar holds the wide engine's fresh walk, with and
// without the retime log, to the scalar engine: for an RCA or BKA
// operator of width 1–16 with per-gate mismatch, a (Vdd, Vbb) point,
// 1–4 ascending clocks (repeats allowed) spread around the STA critical
// delay, K in {1, 2, 4, 8} and a ragged pattern count, every lane of
// every sample must equal a scalar StepDense of its pattern at that
// clock: captured outputs, energy bits and the late flag.
func FuzzWideWalkMatchesScalar(f *testing.F) {
	f.Fuzz(func(t *testing.T, archSel, width uint8, mmSeed uint64, vddMV uint16, vbbDV uint8,
		c0, d1, d2, d3 uint16, nclk, kSel uint8, pats uint16, patSeed uint64, logged bool) {
		arch := synth.ArchRCA
		if archSel&1 == 1 {
			arch = synth.ArchBKA
		}
		w := 1 + (int(width)+15)%16 // 1–16 map to themselves
		nl, err := synth.NewAdder(arch, synth.AdderConfig{Width: w, Mismatch: fdsoi.NewMismatchSampler(0.03, mmSeed)})
		if err != nil {
			t.Fatal(err)
		}
		lib, proc := cell.Default28nmLVT(), fdsoi.Default()
		op := fdsoi.OperatingPoint{Vdd: 0.4 + float64(vddMV%601)/1000, Vbb: float64(vbbDV%21) / 10}
		cd := sta.Analyze(nl, lib, proc, op).CriticalDelay
		// The first clock lies in (0, 2·cd], each later one up to half a
		// critical delay after its predecessor.
		clocks := []float64{cd * float64(1+c0%1000) / 500}
		for _, d := range []uint16{d1, d2, d3}[:nclk%4] {
			clocks = append(clocks, clocks[len(clocks)-1]+cd*float64(d%500)/1000)
		}
		k := 1 << (kSel % 4)
		patterns := 1 + int(pats)%(2*k*sim.WordLanes)
		eng, err := sim.NewWide(nl, lib, proc, op, k)
		if err != nil {
			t.Fatal(err)
		}
		scalar := sim.New(nl, lib, proc, op)
		outNets := traceOutNets(nl)
		chunks := packWideChunks(nl, traceChunks(nl, uint64(1)<<w-1, patterns, patSeed), k)
		samples := make([]sim.WideSample, len(clocks))
		for _, c := range chunks {
			if logged {
				_, err = eng.StepWideTrace(c[0], c[1], outNets, clocks, samples)
			} else {
				err = eng.StepWide(c[0], c[1], outNets, clocks, samples)
			}
			if err != nil {
				t.Fatal(err)
			}
			for i, tclk := range clocks {
				checkSampleMatchesScalar(t, scalar, &samples[i], outNets, k, c[0], c[1], tclk)
			}
		}
	})
}

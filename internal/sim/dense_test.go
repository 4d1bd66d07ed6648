package sim_test

import (
	"testing"

	"repro/internal/fdsoi"
	"repro/internal/sim"
	"repro/internal/synth"
)

// TestDenseInputValidation pins the dense path's error behavior.
func TestDenseInputValidation(t *testing.T) {
	eng, nl, stim := newAdderEngine(t, synth.ArchBKA, 4, fdsoi.OperatingPoint{Vdd: 1.0})
	if err := eng.ResetDense(stim.Values()[:1]); err == nil {
		t.Fatal("short image accepted by ResetDense")
	}
	if _, err := eng.StepDense(stim.Values()[:1], 0.5); err == nil {
		t.Fatal("short image accepted by StepDense")
	}
	if err := eng.ResetDense(stim.Values()); err != nil {
		t.Fatal(err)
	}
	bad := make([]uint8, nl.NumNets())
	bad[nl.Inputs[0].Bits[0]] = 7
	if _, err := eng.StepDense(bad, 0.5); err == nil {
		t.Fatal("non-boolean input accepted by StepDense")
	}
	if _, err := eng.StepDense(stim.Values(), 0); err == nil {
		t.Fatal("non-positive tclk accepted")
	}
	// A failed ResetDense must leave the engine usable from its previous state.
	if err := eng.ResetDense(bad); err == nil {
		t.Fatal("non-boolean input accepted by ResetDense")
	}
	stim.MustSet(synth.PortA, 2)
	stim.MustSet(synth.PortB, 2)
	res, err := eng.StepDense(stim.Values(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if sum, _ := res.CapturedWord(nl, synth.PortSum); sum != 4 {
		t.Fatalf("step after failed reset: sum=%d, want 4", sum)
	}
}

// TestStepperSeam exercises the Stepper interface generically, as the
// characterization flow does.
func TestStepperSeam(t *testing.T) {
	eng, nl, stim := newAdderEngine(t, synth.ArchBKA, 4, fdsoi.OperatingPoint{Vdd: 1.0})
	var st sim.Stepper = eng
	if err := st.ResetDense(stim.Values()); err != nil {
		t.Fatal(err)
	}
	stim.MustSet(synth.PortA, 3)
	stim.MustSet(synth.PortB, 4)
	res, err := st.StepDense(stim.Values(), 10)
	if err != nil {
		t.Fatal(err)
	}
	sum, _ := res.CapturedWord(nl, synth.PortSum)
	cout, _ := res.CapturedWord(nl, synth.PortCout)
	if got := sum | cout<<4; got != 7 {
		t.Fatalf("3+4 through Stepper seam = %d", got)
	}
}

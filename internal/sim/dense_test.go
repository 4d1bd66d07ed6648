package sim_test

import (
	"reflect"
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

	// A step rejected for a non-boolean input must switch none of the
	// inputs before it, on either step entry point: the next valid step
	// is the one a fresh engine takes. On an 8-bit RCA at 0.6 V, a = 0xFF
	// makes inputs left switched cost far more energy than the step.
	for _, stream := range []bool{false, true} {
		op := fdsoi.OperatingPoint{Vdd: 0.6}
		used, nl8, stim8 := newAdderEngine(t, synth.ArchRCA, 8, op)
		fresh, _, _ := newAdderEngine(t, synth.ArchRCA, 8, op)
		step := func(e *sim.Engine, img []uint8) (*sim.Result, error) {
			if stream {
				return e.StreamStepDense(img, 0.5)
			}
			return e.StepDense(img, 0.5)
		}
		stim8.MustSet(synth.PortA, 0xFF)
		bad := append([]uint8(nil), stim8.Values()...)
		pb, _ := nl8.InputPort(synth.PortB)
		bad[pb.Bits[3]] = 2
		if _, err := step(used, bad); err == nil {
			t.Fatal("non-boolean b bit accepted")
		}
		stim8.MustSet(synth.PortA, 1)
		stim8.MustSet(synth.PortB, 2)
		got, err := step(used, stim8.Values())
		if err != nil {
			t.Fatal(err)
		}
		want, err := step(fresh, stim8.Values())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stream=%v: step after a rejected one = %+v, a fresh engine's = %+v", stream, *got, *want)
		}
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

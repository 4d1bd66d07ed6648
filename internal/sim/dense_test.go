package sim_test

import (
	"math/rand/v2"
	"testing"

	"repro/internal/cell"
	"repro/internal/fdsoi"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/synth"
)

// twoEngines builds a pair of engines over one netlist at one operating
// point: one to drive through the legacy map API, one through the dense
// API. Both must produce identical results for identical vector streams.
func twoEngines(t *testing.T, width int, op fdsoi.OperatingPoint) (*sim.Engine, *sim.Engine, *netlist.Netlist) {
	t.Helper()
	mm := fdsoi.NewMismatchSampler(0.03, 99)
	nl, err := synth.NewAdder(synth.ArchBKA, synth.AdderConfig{Width: width, Mismatch: mm})
	if err != nil {
		t.Fatal(err)
	}
	lib, proc := cell.Default28nmLVT(), fdsoi.Default()
	return sim.New(nl, lib, proc, op), sim.New(nl, lib, proc, op), nl
}

func compareResults(t *testing.T, step int, m, d *sim.Result) {
	t.Helper()
	if m.EnergyFJ != d.EnergyFJ || m.Late != d.Late {
		t.Fatalf("step %d: map energy=%v late=%v, dense energy=%v late=%v",
			step, m.EnergyFJ, m.Late, d.EnergyFJ, d.Late)
	}
	for id := range m.Captured {
		if m.Captured[id] != d.Captured[id] {
			t.Fatalf("step %d net %d: captured map=%d dense=%d", step, id, m.Captured[id], d.Captured[id])
		}
	}
	if (m.Settled == nil) != (d.Settled == nil) {
		t.Fatalf("step %d: settled presence differs", step)
	}
	for id := range m.Settled {
		if m.Settled[id] != d.Settled[id] {
			t.Fatalf("step %d net %d: settled map=%d dense=%d", step, id, m.Settled[id], d.Settled[id])
		}
	}
}

// TestDenseStepMatchesMapStep drives the two-vector protocol through both
// input paths with an aggressive over-scaled operating point (plenty of
// late events) and requires bit-identical outcomes.
func TestDenseStepMatchesMapStep(t *testing.T) {
	mapEng, denseEng, nl := twoEngines(t, 8, fdsoi.OperatingPoint{Vdd: 0.55, Vbb: 0})
	binder := sim.NewBinder(nl)
	stim := netlist.CompileStimulus(nl)
	slotA, slotB := stim.MustSlot(synth.PortA), stim.MustSlot(synth.PortB)
	if err := mapEng.Reset(binder.Inputs()); err != nil {
		t.Fatal(err)
	}
	if err := denseEng.ResetDense(stim.Values()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(42, 0))
	const tclk = 0.15
	for i := 0; i < 400; i++ {
		a, b := rng.Uint64()&0xff, rng.Uint64()&0xff
		binder.MustSet(synth.PortA, a)
		binder.MustSet(synth.PortB, b)
		stim.SetSlot(slotA, a)
		stim.SetSlot(slotB, b)
		mres, err := mapEng.Step(binder.Inputs(), tclk)
		if err != nil {
			t.Fatal(err)
		}
		dres, err := denseEng.StepDense(stim.Values(), tclk)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, i, mres, dres)
	}
	if mapEng.Stats() != denseEng.Stats() {
		t.Fatalf("stats diverged: map %+v dense %+v", mapEng.Stats(), denseEng.Stats())
	}
}

// TestDenseStreamMatchesMapStream is the same cross-check for the
// free-running streaming protocol, where leftover events persist between
// vectors.
func TestDenseStreamMatchesMapStream(t *testing.T) {
	mapEng, denseEng, nl := twoEngines(t, 8, fdsoi.OperatingPoint{Vdd: 0.6, Vbb: -2})
	binder := sim.NewBinder(nl)
	stim := netlist.CompileStimulus(nl)
	slotA, slotB := stim.MustSlot(synth.PortA), stim.MustSlot(synth.PortB)
	if err := mapEng.Reset(binder.Inputs()); err != nil {
		t.Fatal(err)
	}
	if err := denseEng.ResetDense(stim.Values()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(43, 0))
	const tclk = 0.09
	for i := 0; i < 400; i++ {
		a, b := rng.Uint64()&0xff, rng.Uint64()&0xff
		binder.MustSet(synth.PortA, a)
		binder.MustSet(synth.PortB, b)
		stim.SetSlot(slotA, a)
		stim.SetSlot(slotB, b)
		mres, err := mapEng.StreamStep(binder.Inputs(), tclk)
		if err != nil {
			t.Fatal(err)
		}
		dres, err := denseEng.StreamStepDense(stim.Values(), tclk)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, i, mres, dres)
	}
	if mapEng.Stats() != denseEng.Stats() {
		t.Fatalf("stats diverged: map %+v dense %+v", mapEng.Stats(), denseEng.Stats())
	}
}

// TestDenseInputValidation pins the dense path's error behavior.
func TestDenseInputValidation(t *testing.T) {
	eng, _, nl := twoEngines(t, 4, fdsoi.OperatingPoint{Vdd: 1.0})
	stim := netlist.CompileStimulus(nl)
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
	// A failed Reset must leave the engine usable from its previous state.
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
	eng, _, nl := twoEngines(t, 4, fdsoi.OperatingPoint{Vdd: 1.0})
	var st sim.Stepper = eng
	stim := netlist.CompileStimulus(nl)
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

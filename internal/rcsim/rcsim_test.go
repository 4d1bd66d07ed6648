package rcsim_test

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/cell"
	"repro/internal/fdsoi"
	"repro/internal/netlist"
	"repro/internal/rcsim"
	"repro/internal/sim"
	"repro/internal/synth"
)

// newEngines builds the RC and gate-level engines over one width-bit RCA,
// both settled on the all-zero vector, and the stimulus that drives them.
func newEngines(t *testing.T, width int, op fdsoi.OperatingPoint) (*rcsim.Engine, *sim.Engine, *netlist.Netlist, *netlist.Stimulus) {
	t.Helper()
	nl, err := synth.RCA(synth.AdderConfig{Width: width})
	if err != nil {
		t.Fatal(err)
	}
	lib := cell.Default28nmLVT()
	proc := fdsoi.Default()
	rc, gate := rcsim.New(nl, lib, proc, op), sim.New(nl, lib, proc, op)
	stim := netlist.CompileStimulus(nl)
	for _, e := range []sim.Stepper{rc, gate} {
		if err := e.ResetDense(stim.Values()); err != nil {
			t.Fatal(err)
		}
	}
	return rc, gate, nl, stim
}

// stepAdder runs one two-vector experiment on e and returns the captured
// sum with carry-out. The result is e's and valid until its next step.
func stepAdder(t *testing.T, e sim.Stepper, nl *netlist.Netlist, stim *netlist.Stimulus, a, bb uint64, tclk float64) (uint64, *rcsim.Result) {
	t.Helper()
	stim.MustSet(synth.PortA, a)
	stim.MustSet(synth.PortB, bb)
	res, err := e.StepDense(stim.Values(), tclk)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := res.CapturedWord(nl, synth.PortSum)
	co, _ := res.CapturedWord(nl, synth.PortCout)
	width := 0
	if p, ok := nl.OutputPort(synth.PortSum); ok {
		width = len(p.Bits)
	}
	return s | co<<uint(width), res
}

func TestNominalExactness(t *testing.T) {
	proc := fdsoi.Default()
	rc, _, nl, stim := newEngines(t, 8, proc.Nominal())
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 300; i++ {
		a, bb := rng.Uint64()&0xff, rng.Uint64()&0xff
		got, res := stepAdder(t, rc, nl, stim, a, bb, 0.5)
		if got != a+bb {
			t.Fatalf("rc nominal (%d+%d) captured %d", a, bb, got)
		}
		if res.Late {
			t.Fatal("late crossing at relaxed clock")
		}
	}
}

func TestSettledMatchesEvaluate(t *testing.T) {
	// After every step, the RC engine's settled rails must equal the
	// zero-delay evaluation — whatever the operating point.
	for _, op := range []fdsoi.OperatingPoint{
		fdsoi.Default().Nominal(),
		{Vdd: 0.5, Vbb: 2},
		{Vdd: 0.6, Vbb: 0},
	} {
		rc, _, nl, stim := newEngines(t, 8, op)
		rng := rand.New(rand.NewPCG(3, 4))
		for i := 0; i < 100; i++ {
			stim.MustSet(synth.PortA, rng.Uint64()&0xff)
			stim.MustSet(synth.PortB, rng.Uint64()&0xff)
			res, err := rc.StepDense(stim.Values(), 0.2)
			if err != nil {
				t.Fatal(err)
			}
			// The engine reads only the image's input entries, so the
			// reference may overwrite the gate-driven ones in place.
			want := stim.Values()
			if err := nl.EvaluateInto(want); err != nil {
				t.Fatal(err)
			}
			for id, v := range want {
				if res.Settled[id] != v {
					t.Fatalf("op %+v: settled net %d = %d, want %d", op, id, res.Settled[id], v)
				}
			}
		}
	}
}

func TestCrossValidationWithGateLevel(t *testing.T) {
	// The two engines must agree on the safe/faulty classification of
	// operating points: zero errors at the nominal and FBB-rescued
	// points, errors at deep over-scaling; BER within a factor-2 band
	// where both are erroneous.
	cases := []struct {
		op     fdsoi.OperatingPoint
		tclk   float64
		expect string // "clean", "faulty"
	}{
		{fdsoi.Default().Nominal(), 0.48, "clean"},
		{fdsoi.OperatingPoint{Vdd: 0.5, Vbb: 2}, 0.269, "clean"},
		{fdsoi.OperatingPoint{Vdd: 0.5, Vbb: 0}, 0.269, "faulty"},
		{fdsoi.OperatingPoint{Vdd: 0.4, Vbb: 2}, 0.124, "faulty"},
	}
	for _, tc := range cases {
		rc, gate, nl, stim := newEngines(t, 8, tc.op)
		rng := rand.New(rand.NewPCG(5, 6))
		const n = 400
		rcErrs, gateErrs := 0, 0
		for i := 0; i < n; i++ {
			a, bb := rng.Uint64()&0xff, rng.Uint64()&0xff
			if got, _ := stepAdder(t, rc, nl, stim, a, bb, tc.tclk); got != a+bb {
				rcErrs++
			}
			if got, _ := stepAdder(t, gate, nl, stim, a, bb, tc.tclk); got != a+bb {
				gateErrs++
			}
		}
		switch tc.expect {
		case "clean":
			if rcErrs != 0 || gateErrs != 0 {
				t.Fatalf("op %+v: expected clean, rc=%d gate=%d errors", tc.op, rcErrs, gateErrs)
			}
		case "faulty":
			if rcErrs == 0 || gateErrs == 0 {
				t.Fatalf("op %+v: expected faults in both engines, rc=%d gate=%d", tc.op, rcErrs, gateErrs)
			}
		}
	}
}

func TestGlitchFiltering(t *testing.T) {
	// On a glitch-heavy workload the RC engine must register fewer
	// threshold crossings than the transport-delay engine registers
	// transitions (inertial filtering).
	op := fdsoi.Default().Nominal()
	rc, gate, nl, stim := newEngines(t, 16, op)
	rng := rand.New(rand.NewPCG(7, 8))
	for i := 0; i < 300; i++ {
		a, bb := rng.Uint64()&0xffff, rng.Uint64()&0xffff
		stepAdder(t, rc, nl, stim, a, bb, 0.6)
		stepAdder(t, gate, nl, stim, a, bb, 0.6)
	}
	if rc.Crossings() >= gate.Stats().Transitions {
		t.Fatalf("RC crossings %d not below gate transitions %d",
			rc.Crossings(), gate.Stats().Transitions)
	}
}

func TestBERMonotoneInVdd(t *testing.T) {
	prev := -1.0
	for _, vdd := range []float64{0.8, 0.7, 0.6, 0.5} {
		rc, _, nl, stim := newEngines(t, 8, fdsoi.OperatingPoint{Vdd: vdd})
		rng := rand.New(rand.NewPCG(9, 10))
		errs := 0
		const n = 400
		for i := 0; i < n; i++ {
			a, bb := rng.Uint64()&0xff, rng.Uint64()&0xff
			got, _ := stepAdder(t, rc, nl, stim, a, bb, 0.269)
			if got != a+bb {
				errs++
			}
		}
		rate := float64(errs) / n
		if rate < prev {
			t.Fatalf("error rate fell from %v to %v at %.1fV", prev, rate, vdd)
		}
		prev = rate
	}
	if prev == 0 {
		t.Fatal("no errors even at 0.5V")
	}
}

func TestEnergyPositiveAndGrowsWithActivity(t *testing.T) {
	op := fdsoi.Default().Nominal()
	rc, _, nl, stim := newEngines(t, 8, op)
	// All-bits toggle must cost more than a single-LSB toggle. Each
	// step reuses the engine's Result, so keep only the energies.
	energy := func(a, bb uint64) float64 {
		_, res := stepAdder(t, rc, nl, stim, a, bb, 0.5)
		return res.EnergyFJ
	}
	energy(0x00, 0x00)
	eAll := energy(0xFF, 0xFF)
	eBack := energy(0x00, 0x00)
	eOne := energy(0x01, 0x00)
	if eAll <= eOne {
		t.Fatalf("full toggle %v fJ not above single-bit %v fJ", eAll, eOne)
	}
	if eBack <= 0 || eOne <= 0 {
		t.Fatal("non-positive step energy")
	}
}

func TestStepValidation(t *testing.T) {
	op := fdsoi.Default().Nominal()
	rc, _, nl, stim := newEngines(t, 4, op)
	if _, err := rc.StepDense(stim.Values(), 0); err == nil {
		t.Fatal("tclk 0 accepted")
	}
	if _, err := rc.StepDense(stim.Values()[:1], 0.5); err == nil {
		t.Fatal("short image accepted")
	}
	bad := make([]uint8, nl.NumNets())
	bad[nl.Inputs[0].Bits[0]] = 2
	if _, err := rc.StepDense(bad, 0.5); err == nil {
		t.Fatal("non-boolean accepted")
	}
	if err := rc.ResetDense(stim.Values()[:1]); err == nil {
		t.Fatal("bad reset accepted")
	}

	// A step rejected for a non-boolean input must switch none of the
	// inputs before it: the next valid step is the one a fresh engine
	// takes, from random states, images and clocks. Inputs left switched
	// reorder the next step's equal-time crossings, which moves its energy
	// in the last bits.
	r := rand.New(rand.NewPCG(1, 1))
	for trial := range 300 {
		op := fdsoi.OperatingPoint{Vdd: 0.4 + 0.6*r.Float64()}
		used, _, nl8, stim8 := newEngines(t, 8, op)
		fresh, _, _, _ := newEngines(t, 8, op)
		a0, b0 := r.Uint64N(256), r.Uint64N(256)
		stepAdder(t, used, nl8, stim8, a0, b0, 5)
		stepAdder(t, fresh, nl8, stim8, a0, b0, 5)
		stim8.MustSet(synth.PortA, r.Uint64N(256))
		stim8.MustSet(synth.PortB, r.Uint64N(256))
		bad := append([]uint8(nil), stim8.Values()...)
		pb, _ := nl8.InputPort(synth.PortB)
		bad[pb.Bits[r.IntN(8)]] = 2
		if _, err := used.StepDense(bad, 0.5); err == nil {
			t.Fatal("non-boolean b bit accepted")
		}
		a, b, tclk := r.Uint64N(256), r.Uint64N(256), 0.05+r.Float64()
		_, got := stepAdder(t, used, nl8, stim8, a, b, tclk)
		_, want := stepAdder(t, fresh, nl8, stim8, a, b, tclk)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: step after a rejected one = %+v, a fresh engine's = %+v", trial, *got, *want)
		}
	}
}

func TestPartialSwingCapture(t *testing.T) {
	// A single inverter clocked just below its delay: the captured value
	// must be the stale one (trajectory has not crossed Vdd/2), and just
	// above: the new one.
	bld := netlist.NewBuilder("inv1")
	a := bld.InputBus("a", 1)
	o := bld.Gate(cell.INV, a[0])
	bld.OutputBus("o", []netlist.NetID{o})
	nl := bld.MustBuild()
	lib := cell.Default28nmLVT()
	proc := fdsoi.Default()
	rc := rcsim.New(nl, lib, proc, proc.Nominal())
	// The 50% crossing equals the gate-level delay by construction.
	gate := sim.New(nl, lib, proc, proc.Nominal())
	delay := gate.GateDelay(0)

	in := make([]uint8, nl.NumNets())
	if err := rc.ResetDense(in); err != nil {
		t.Fatal(err)
	}
	in[a[0]] = 1
	res, err := rc.StepDense(in, delay*0.98)
	if err != nil {
		t.Fatal(err)
	}
	if res.Captured[o] != 1 {
		t.Fatal("stale value expected below the crossing time")
	}
	in[a[0]] = 0
	if err := rc.ResetDense(in); err != nil {
		t.Fatal(err)
	}
	in[a[0]] = 1
	res, err = rc.StepDense(in, delay*1.02)
	if err != nil {
		t.Fatal(err)
	}
	if res.Captured[o] != 0 {
		t.Fatal("new value expected above the crossing time")
	}
}

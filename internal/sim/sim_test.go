package sim_test

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/cell"
	"repro/internal/fdsoi"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/sta"
	"repro/internal/synth"
)

// newAdderEngine builds an engine over a width-bit adder, settled on the
// all-zero vector, and the stimulus that drives it.
func newAdderEngine(t *testing.T, arch synth.Arch, width int, op fdsoi.OperatingPoint) (*sim.Engine, *netlist.Netlist, *netlist.Stimulus) {
	t.Helper()
	nl, err := synth.NewAdder(arch, synth.AdderConfig{Width: width})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(nl, cell.Default28nmLVT(), fdsoi.Default(), op)
	stim := netlist.CompileStimulus(nl)
	if err := eng.ResetDense(stim.Values()); err != nil {
		t.Fatal(err)
	}
	return eng, nl, stim
}

// step runs one two-vector experiment and returns captured and settled sums.
func step(t *testing.T, e *sim.Engine, nl *netlist.Netlist, stim *netlist.Stimulus, a, bb uint64, tclk float64) (cap, set uint64) {
	t.Helper()
	stim.MustSet(synth.PortA, a)
	stim.MustSet(synth.PortB, bb)
	res, err := e.StepDense(stim.Values(), tclk)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := res.CapturedWord(nl, synth.PortSum)
	s, _ := res.SettledWord(nl, synth.PortSum)
	co, _ := res.CapturedWord(nl, synth.PortCout)
	so, _ := res.SettledWord(nl, synth.PortCout)
	width := len(mustPort(nl, synth.PortSum).Bits)
	return c | co<<uint(width), s | so<<uint(width)
}

func mustPort(nl *netlist.Netlist, name string) netlist.Port {
	p, ok := nl.OutputPort(name)
	if !ok {
		panic("missing port " + name)
	}
	return p
}

func TestNominalNoErrors(t *testing.T) {
	proc := fdsoi.Default()
	for _, arch := range []synth.Arch{synth.ArchRCA, synth.ArchBKA} {
		eng, nl, stim := newAdderEngine(t, arch, 8, proc.Nominal())
		rng := rand.New(rand.NewPCG(1, 2))
		for i := 0; i < 300; i++ {
			a, bb := rng.Uint64()&0xff, rng.Uint64()&0xff
			cap, set := step(t, eng, nl, stim, a, bb, 0.5)
			if cap != a+bb || set != a+bb {
				t.Fatalf("%s: (%d+%d) captured %d settled %d", arch, a, bb, cap, set)
			}
		}
	}
}

// TestSettledMatchesZeroDelayEval is the core simulator invariant: whatever
// the operating point, after quiescence the event-driven state must equal
// the zero-delay functional evaluation.
func TestSettledMatchesZeroDelayEval(t *testing.T) {
	proc := fdsoi.Default()
	ops := []fdsoi.OperatingPoint{
		proc.Nominal(),
		{Vdd: 0.6, Vbb: 0},
		{Vdd: 0.4, Vbb: 2},
		{Vdd: 0.45, Vbb: -1},
	}
	for _, op := range ops {
		eng, nl, stim := newAdderEngine(t, synth.ArchRCA, 8, op)
		rng := rand.New(rand.NewPCG(3, 4))
		for i := 0; i < 100; i++ {
			stim.MustSet(synth.PortA, rng.Uint64()&0xff)
			stim.MustSet(synth.PortB, rng.Uint64()&0xff)
			res, err := eng.StepDense(stim.Values(), 0.28)
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

func TestVOSInducesErrors(t *testing.T) {
	// 0.5 V without body bias at the nominal clock: deep over-scaling.
	eng, nl, stim := newAdderEngine(t, synth.ArchRCA, 8, fdsoi.OperatingPoint{Vdd: 0.5})
	rng := rand.New(rand.NewPCG(5, 6))
	errs, late := 0, 0
	for i := 0; i < 500; i++ {
		a, bb := rng.Uint64()&0xff, rng.Uint64()&0xff
		stim.MustSet(synth.PortA, a)
		stim.MustSet(synth.PortB, bb)
		res, err := eng.StepDense(stim.Values(), 0.28)
		if err != nil {
			t.Fatal(err)
		}
		c, _ := res.CapturedWord(nl, synth.PortSum)
		if c != (a+bb)&0xff {
			errs++
		}
		if res.Late {
			late++
		}
	}
	if errs == 0 {
		t.Fatal("expected timing errors at 0.5V/0.28ns, saw none")
	}
	if late == 0 {
		t.Fatal("expected late events")
	}
}

func TestFBBRecoversCorrectness(t *testing.T) {
	eng, nl, stim := newAdderEngine(t, synth.ArchRCA, 8, fdsoi.OperatingPoint{Vdd: 0.5, Vbb: 2})
	rng := rand.New(rand.NewPCG(7, 8))
	for i := 0; i < 500; i++ {
		a, bb := rng.Uint64()&0xff, rng.Uint64()&0xff
		cap, _ := step(t, eng, nl, stim, a, bb, 0.28)
		if cap != a+bb {
			t.Fatalf("0.5V+FBB should be error-free at 0.28ns: (%d+%d) captured %d", a, bb, cap)
		}
	}
}

func TestEnergyDropsWithVdd(t *testing.T) {
	var prev float64
	first := true
	for _, vdd := range []float64{1.0, 0.8, 0.6} {
		eng, _, stim := newAdderEngine(t, synth.ArchRCA, 8, fdsoi.OperatingPoint{Vdd: vdd, Vbb: 2})
		rng := rand.New(rand.NewPCG(9, 10))
		var total float64
		for i := 0; i < 200; i++ {
			stim.MustSet(synth.PortA, rng.Uint64()&0xff)
			stim.MustSet(synth.PortB, rng.Uint64()&0xff)
			res, err := eng.StepDense(stim.Values(), 0.5)
			if err != nil {
				t.Fatal(err)
			}
			total += res.EnergyFJ
		}
		if !first && total >= prev {
			t.Fatalf("energy at %.1fV (%.1f fJ) not below previous (%.1f fJ)", vdd, total, prev)
		}
		prev, first = total, false
	}
}

func TestNominalEnergyPerOpCalibration(t *testing.T) {
	// Fig. 8a: 8-bit RCA at the nominal triad burns ≈ 0.10–0.22 pJ/op.
	proc := fdsoi.Default()
	eng, _, stim := newAdderEngine(t, synth.ArchRCA, 8, proc.Nominal())
	rng := rand.New(rand.NewPCG(11, 12))
	var total float64
	const n = 2000
	for i := 0; i < n; i++ {
		stim.MustSet(synth.PortA, rng.Uint64()&0xff)
		stim.MustSet(synth.PortB, rng.Uint64()&0xff)
		res, err := eng.StepDense(stim.Values(), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		total += res.EnergyFJ
	}
	perOp := total / n
	if perOp < 100 || perOp > 220 {
		t.Fatalf("nominal E/op = %.1f fJ, outside the calibration band [100, 220]", perOp)
	}
}

func TestCaptureBoundarySingleGate(t *testing.T) {
	// One inverter: captured value flips depending on whether tclk covers
	// the gate delay.
	b := netlist.NewBuilder("inv1")
	a := b.InputBus("a", 1)
	o := b.Gate(cell.INV, a[0])
	b.OutputBus("o", []netlist.NetID{o})
	nl := b.MustBuild()
	lib := cell.Default28nmLVT()
	proc := fdsoi.Default()
	eng := sim.New(nl, lib, proc, proc.Nominal())
	delay := eng.GateDelay(0)

	in := make([]uint8, nl.NumNets())
	if err := eng.ResetDense(in); err != nil {
		t.Fatal(err)
	}
	in[a[0]] = 1
	res, err := eng.StepDense(in, delay*1.01)
	if err != nil {
		t.Fatal(err)
	}
	if res.Captured[o] != 0 {
		t.Fatal("new value must be captured when tclk > delay")
	}
	if res.Late {
		t.Fatal("no late events expected")
	}

	in[a[0]] = 0
	if err := eng.ResetDense(in); err != nil {
		t.Fatal(err)
	}
	in[a[0]] = 1
	res, err = eng.StepDense(in, delay*0.99)
	if err != nil {
		t.Fatal(err)
	}
	if res.Captured[o] != 1 {
		t.Fatal("stale value must be captured when tclk < delay")
	}
	if !res.Late {
		t.Fatal("late event expected")
	}
	if res.Settled[o] != 0 {
		t.Fatal("circuit must still settle to the correct value")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []uint64 {
		eng, nl, stim := newAdderEngine(t, synth.ArchBKA, 8, fdsoi.OperatingPoint{Vdd: 0.55})
		rng := rand.New(rand.NewPCG(21, 22))
		var out []uint64
		for i := 0; i < 200; i++ {
			stim.MustSet(synth.PortA, rng.Uint64()&0xff)
			stim.MustSet(synth.PortB, rng.Uint64()&0xff)
			res, err := eng.StepDense(stim.Values(), 0.19)
			if err != nil {
				t.Fatal(err)
			}
			w, _ := res.CapturedWord(nl, synth.PortSum)
			out = append(out, w)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at step %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestStreamStepGenerousClockMatchesStep(t *testing.T) {
	proc := fdsoi.Default()
	eng, nl, stim := newAdderEngine(t, synth.ArchRCA, 8, proc.Nominal())
	rng := rand.New(rand.NewPCG(31, 32))
	for i := 0; i < 200; i++ {
		a, bb := rng.Uint64()&0xff, rng.Uint64()&0xff
		stim.MustSet(synth.PortA, a)
		stim.MustSet(synth.PortB, bb)
		res, err := eng.StreamStepDense(stim.Values(), 1.0)
		if err != nil {
			t.Fatal(err)
		}
		c, _ := res.CapturedWord(nl, synth.PortSum)
		co, _ := res.CapturedWord(nl, synth.PortCout)
		if c|co<<8 != a+bb {
			t.Fatalf("stream at generous clock: (%d+%d) captured %d", a, bb, c|co<<8)
		}
		if res.Late {
			t.Fatal("no pending events expected at generous clock")
		}
	}
}

func TestStreamStepOverdrivenProducesErrors(t *testing.T) {
	eng, nl, stim := newAdderEngine(t, synth.ArchRCA, 8, fdsoi.OperatingPoint{Vdd: 0.6})
	rng := rand.New(rand.NewPCG(41, 42))
	errs := 0
	for i := 0; i < 300; i++ {
		a, bb := rng.Uint64()&0xff, rng.Uint64()&0xff
		stim.MustSet(synth.PortA, a)
		stim.MustSet(synth.PortB, bb)
		res, err := eng.StreamStepDense(stim.Values(), 0.13)
		if err != nil {
			t.Fatal(err)
		}
		c, _ := res.CapturedWord(nl, synth.PortSum)
		co, _ := res.CapturedWord(nl, synth.PortCout)
		if c|co<<8 != a+bb {
			errs++
		}
	}
	if errs == 0 {
		t.Fatal("expected streaming errors under overclocking")
	}
}

func TestStatsAccumulate(t *testing.T) {
	proc := fdsoi.Default()
	eng, _, stim := newAdderEngine(t, synth.ArchRCA, 8, proc.Nominal())
	stim.MustSet(synth.PortA, 0xff)
	stim.MustSet(synth.PortB, 0x01)
	if _, err := eng.StepDense(stim.Values(), 0.5); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Steps != 1 || st.Transitions == 0 || st.EnergyFJ() <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.LeakageEnergy <= 0 {
		t.Fatal("leakage energy must be positive")
	}
	eng.ResetStats()
	if eng.Stats().Steps != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

// TestErrorPaths covers the streaming entry point's input checks;
// TestDenseInputValidation covers the two-vector ones.
func TestErrorPaths(t *testing.T) {
	eng, _, stim := newAdderEngine(t, synth.ArchRCA, 4, fdsoi.Default().Nominal())
	if _, err := eng.StreamStepDense(stim.Values(), -1); err == nil {
		t.Fatal("negative tclk accepted")
	}
	if _, err := eng.StreamStepDense(stim.Values()[:1], 0.5); err == nil {
		t.Fatal("short image accepted by StreamStepDense")
	}
}

// TestCapturedErrorsAreTimingConsistent cross-checks the simulator against
// STA: if STA says every output settles within tclk (with margin for the
// zero mismatch used here), the simulator must capture correct results for
// any vector pair.
func TestCapturedErrorsAreTimingConsistent(t *testing.T) {
	lib := cell.Default28nmLVT()
	proc := fdsoi.Default()
	nl, _ := synth.RCA(synth.AdderConfig{Width: 8})
	op := fdsoi.OperatingPoint{Vdd: 0.7, Vbb: 2}
	an := sta.Analyze(nl, lib, proc, op)
	tclk := an.CriticalDelay * 1.05
	eng := sim.New(nl, lib, proc, op)
	stim := netlist.CompileStimulus(nl)
	if err := eng.ResetDense(stim.Values()); err != nil {
		t.Fatal(err)
	}
	f := func(a, bb uint8) bool {
		stim.MustSet(synth.PortA, uint64(a))
		stim.MustSet(synth.PortB, uint64(bb))
		res, err := eng.StepDense(stim.Values(), tclk)
		if err != nil {
			return false
		}
		c, _ := res.CapturedWord(nl, synth.PortSum)
		co, _ := res.CapturedWord(nl, synth.PortCout)
		return c|co<<8 == uint64(a)+uint64(bb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// logicDepth is the largest number of gates on any input-to-net path.
func logicDepth(nl *netlist.Netlist) int {
	level := make([]int, nl.NumNets())
	depth := 0
	for _, gi := range nl.Topological() {
		g := &nl.Gates[gi]
		l := 0
		for _, in := range g.Inputs {
			l = max(l, level[in])
		}
		level[g.Output] = l + 1
		depth = max(depth, l+1)
	}
	return depth
}

// TestWideWalkMeetsStaticTiming is the timing invariant behind every
// error-free triad, on the wide engine: across the four paper operators
// with random per-gate mismatch and the Table III Vdd × Vbb grid, a
// StepWide clocked at the point's STA critical delay plus the delay
// grid's bound — under 1e-6 ns per gate level of quantization and
// dither (tables.go) — must capture the zero-delay evaluation of every
// net in every lane and flag no lane late. A simulated transition past
// that clock would be a path the static model missed.
func TestWideWalkMeetsStaticTiming(t *testing.T) {
	lib, proc := cell.Default28nmLVT(), fdsoi.Default()
	rng := rand.New(rand.NewPCG(2017, 5))
	const k = 2
	samples := make([]sim.WideSample, 1)
	for _, ad := range []struct {
		arch  synth.Arch
		width int
	}{
		{synth.ArchRCA, 8},
		{synth.ArchBKA, 8},
		{synth.ArchRCA, 16},
		{synth.ArchBKA, 16},
	} {
		mm := fdsoi.NewMismatchSampler(0.03, rng.Uint64())
		nl, err := synth.NewAdder(ad.arch, synth.AdderConfig{Width: ad.width, Mismatch: mm})
		if err != nil {
			t.Fatal(err)
		}
		bound := float64(logicDepth(nl)) * 1e-6
		tracked := allNets(nl)
		// Three 64-pattern chunks: one full two-word block and one whose
		// second word is zero-filled.
		chunks := packWideChunks(nl, traceChunks(nl, uint64(1)<<ad.width-1, 3*sim.WordLanes, rng.Uint64()), k)
		for _, vbb := range []float64{0, 2} {
			for _, vdd := range []float64{1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4} {
				op := fdsoi.OperatingPoint{Vdd: vdd, Vbb: vbb}
				tclk := sta.Analyze(nl, lib, proc, op).CriticalDelay + bound
				eng, err := sim.NewWide(nl, lib, proc, op, k)
				if err != nil {
					t.Fatal(err)
				}
				for ci, c := range chunks {
					if err := eng.StepWide(c[0], c[1], tracked, []float64{tclk}, samples); err != nil {
						t.Fatal(err)
					}
					want := append([]uint64(nil), c[1]...)
					if err := nl.EvaluateWide(want, k); err != nil {
						t.Fatal(err)
					}
					for id := range tracked {
						for j := 0; j < k; j++ {
							if got := samples[0].CapturedW[id*k+j]; got != want[id*k+j] {
								t.Fatalf("%s%d %.1fV/%gbb chunk %d net %d word %d: captured %x at tclk %v, zero-delay %x",
									ad.arch, ad.width, vdd, vbb, ci, id, j, got, tclk, want[id*k+j])
							}
						}
					}
					for j, w := range samples[0].LateW {
						if w != 0 {
							t.Fatalf("%s%d %.1fV/%gbb chunk %d word %d: late lanes %x at tclk %v",
								ad.arch, ad.width, vdd, vbb, ci, j, w, tclk)
						}
					}
				}
			}
		}
	}
}

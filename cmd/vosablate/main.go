// Command vosablate runs the extension studies beyond the paper's core
// evaluation (DESIGN.md §6):
//
//   - an architecture sweep of five adder families (RCA, BKA, KSA,
//     Sklansky, carry-select) under identical VOS conditions,
//   - the array multiplier under VOS (deeper carry structures),
//   - static approximate adders (LOA, TRA) versus VOS at matched BER,
//   - stimulus-bias sensitivity (carry-propagate probability),
//   - engine fidelity: gate-level transport delay vs switch-level RC.
//
// Usage:
//
//	vosablate [-patterns 4000] [-seed 1] [-study all|arch|mul|static|bias|engine]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/bits"
	"math/rand/v2"
	"os"

	"repro/internal/carry"
	"repro/internal/cell"
	"repro/internal/charz"
	"repro/internal/fdsoi"
	"repro/internal/netlist"
	"repro/internal/patterns"
	"repro/internal/report"
	"repro/internal/synth"
	"repro/internal/triad"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vosablate: ")
	var (
		patterns = flag.Int("patterns", 4000, "stimulus vectors per point")
		seed     = flag.Uint64("seed", 1, "experiment seed")
		study    = flag.String("study", "all", "study: all, arch, mul, static, bias, engine")
	)
	flag.Parse()
	run := func(name string, f func(int, uint64) error) {
		if *study != "all" && *study != name {
			return
		}
		if err := f(*patterns, *seed); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println()
	}
	run("arch", archStudy)
	run("mul", mulStudy)
	run("static", staticStudy)
	run("bias", biasStudy)
	run("engine", engineStudy)
}

// archStudy sweeps all five adder architectures at 16 bits under the same
// relative VOS conditions.
func archStudy(n int, seed uint64) error {
	t := report.NewTable("Architecture study — 16-bit adders under VOS (clock = own synthesis CP)",
		"Arch", "Gates", "Area (µm²)", "CP (ns)", "E/op nom (fJ)",
		"BER @0.5V±2 (%)", "BER @0.6V,0 (%)", "BER @0.4V±2 (%)")
	lib := cell.Default28nmLVT()
	proc := fdsoi.Default()
	for _, arch := range synth.Arches() {
		nl, err := synth.NewAdder(arch, synth.AdderConfig{Width: 16})
		if err != nil {
			return err
		}
		rep, err := synth.Synthesize(nl, lib, proc, 1000, seed)
		if err != nil {
			return err
		}
		cfg := charz.Config{Arch: arch, Width: 16, Patterns: n, Seed: seed}
		op := charz.AdderOperator(nl, 16)
		cp := rep.CriticalPath
		set := []triad.Triad{
			{Tclk: cp * 1.8, Vdd: 1.0, Vbb: 0},
			{Tclk: cp, Vdd: 0.5, Vbb: 2},
			{Tclk: cp, Vdd: 0.6, Vbb: 0},
			{Tclk: cp, Vdd: 0.4, Vbb: 2},
		}
		res, err := charz.SweepOperator(op, cfg, set)
		if err != nil {
			return err
		}
		t.AddRow(arch.String(), nl.NumGates(), rep.Area,
			fmt.Sprintf("%.3f", cp),
			fmt.Sprintf("%.1f", res[0].EnergyPerOpFJ),
			fmt.Sprintf("%.2f", res[1].BER()*100),
			fmt.Sprintf("%.2f", res[2].BER()*100),
			fmt.Sprintf("%.2f", res[3].BER()*100))
	}
	t.Render(os.Stdout)
	return nil
}

// mulStudy characterizes the 8-bit array multiplier across a Vdd sweep.
func mulStudy(n int, seed uint64) error {
	lib := cell.Default28nmLVT()
	proc := fdsoi.Default()
	nl, err := synth.ArrayMultiplier(synth.MultiplierConfig{Width: 8})
	if err != nil {
		return err
	}
	rep, err := synth.Synthesize(nl, lib, proc, 1000, seed)
	if err != nil {
		return err
	}
	cfg := charz.Config{Arch: synth.ArchRCA, Width: 8, Patterns: n, Seed: seed}
	op := charz.MultiplierOperator(nl, 8)
	var set []triad.Triad
	for vdd := 1.0; vdd >= 0.4-1e-9; vdd -= 0.1 {
		for _, vbb := range []float64{0, 2} {
			set = append(set, triad.Triad{Tclk: rep.CriticalPath, Vdd: vdd, Vbb: vbb})
		}
	}
	res, err := charz.SweepOperator(op, cfg, set)
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("Array multiplier mul8 under VOS (CP %.3f ns, %d gates)",
		rep.CriticalPath, nl.NumGates()),
		"Triad", "BER (%)", "E/op (fJ)", "Efficiency (%)")
	for _, r := range res {
		t.AddRow(r.Triad.Label(),
			fmt.Sprintf("%.2f", r.BER()*100),
			fmt.Sprintf("%.1f", r.EnergyPerOpFJ),
			fmt.Sprintf("%.1f", r.Efficiency*100))
	}
	t.Render(os.Stdout)
	return nil
}

// staticStudy compares the design-time approximate adders against VOS.
func staticStudy(n int, seed uint64) error {
	lib := cell.Default28nmLVT()
	proc := fdsoi.Default()
	t := report.NewTable("Static approximation (LOA/TRA at nominal V) vs VOS (exact RCA, scaled V)",
		"Design", "BER (%)", "E/op (fJ)", "Knob")
	rng := rand.New(rand.NewPCG(seed, 5))
	cfg := charz.Config{Arch: synth.ArchRCA, Width: 8, Patterns: n, Seed: seed}
	// measure runs n random pairs through the gate-level oracle at the
	// nominal supply and returns the BER over the 9 result bits and the
	// mean energy per operation.
	measure := func(nl *netlist.Netlist, tclk float64) (float64, float64, error) {
		hw, err := charz.NewEngineAdder(nl, cfg, triad.Triad{Tclk: tclk, Vdd: proc.VddNom})
		if err != nil {
			return 0, 0, err
		}
		faulty := 0
		for i := 0; i < n; i++ {
			a, b := rng.Uint64()&0xff, rng.Uint64()&0xff
			faulty += bits.OnesCount64(hw.Add(a, b) ^ (a + b))
		}
		return float64(faulty) / float64(9*n), hw.MeanEnergyFJ(), nil
	}
	for _, k := range []int{2, 4, 6} {
		loa, err := synth.LOA(synth.ApproxConfig{Width: 8, ApproxBits: k})
		if err != nil {
			return err
		}
		rep, err := synth.Synthesize(loa, lib, proc, 500, seed)
		if err != nil {
			return err
		}
		ber, e, err := measure(loa, rep.CriticalPath)
		if err != nil {
			return err
		}
		t.AddRow(fmt.Sprintf("LOA k=%d", k), fmt.Sprintf("%.2f", ber*100),
			fmt.Sprintf("%.1f", e), "fixed at design time")
	}
	res, err := charz.Run(cfg)
	if err != nil {
		return err
	}
	for _, target := range []float64{0.01, 0.05, 0.15} {
		best, diff := -1, 10.0
		for j, tr := range res.Triads {
			d := tr.BER() - target
			if d < 0 {
				d = -d
			}
			if d < diff {
				best, diff = j, d
			}
		}
		tr := res.Triads[best]
		t.AddRow("VOS RCA "+tr.Triad.Label(), fmt.Sprintf("%.2f", tr.BER()*100),
			fmt.Sprintf("%.1f", tr.EnergyPerOpFJ), "runtime-switchable")
	}
	t.Render(os.Stdout)
	return nil
}

// biasStudy sweeps the stimulus carry-propagate probability.
func biasStudy(n int, seed uint64) error {
	t := report.NewTable("Stimulus bias — mean erroneous-triad BER vs carry-propagate probability (8-bit RCA)",
		"P(propagate)", "Erroneous triads", "Mean BER (%)", "Mean Cthmax")
	for _, p := range []float64{0.2, 0.35, 0.5, 0.65, 0.8} {
		cfg := charz.Config{
			Arch: synth.ArchRCA, Width: 8, Patterns: n, Seed: seed,
			PropagateP: p,
		}
		res, err := charz.Run(cfg)
		if err != nil {
			return err
		}
		var sum float64
		n := 0
		for _, tr := range res.Triads {
			if tr.BER() > 0 {
				sum += tr.BER()
				n++
			}
		}
		// Mean theoretical chain length for this bias.
		genP, err := patterns.NewPropagateProfile(8, p, seed)
		if err != nil {
			return err
		}
		var chain float64
		const probe = 4000
		for i := 0; i < probe; i++ {
			a, b := genP.Next()
			chain += float64(carry.Cthmax(a, b, 8))
		}
		t.AddRow(fmt.Sprintf("%.2f", p), n,
			fmt.Sprintf("%.2f", sum/float64(n)*100),
			fmt.Sprintf("%.2f", chain/probe))
	}
	t.Render(os.Stdout)
	return nil
}

// engineStudy compares the gate-level and RC backends on one triad set.
func engineStudy(n int, seed uint64) error {
	clocks := triad.PaperClockRatios("RCA", 8).Clocks(0.27)
	set := []triad.Triad{
		{Tclk: clocks[1], Vdd: 1.0, Vbb: 0},
		{Tclk: clocks[1], Vdd: 0.8, Vbb: 0},
		{Tclk: clocks[1], Vdd: 0.7, Vbb: 0},
		{Tclk: clocks[1], Vdd: 0.5, Vbb: 2},
		{Tclk: clocks[1], Vdd: 0.4, Vbb: 2},
		{Tclk: clocks[2], Vdd: 0.6, Vbb: 0},
	}
	runB := func(b charz.Backend) (*charz.Result, error) {
		cfg := charz.Config{
			Arch: synth.ArchRCA, Width: 8, Patterns: n, Seed: seed,
			Triads: set, Backend: b,
		}
		return charz.Run(cfg)
	}
	gate, err := runB(charz.BackendGate)
	if err != nil {
		return err
	}
	rc, err := runB(charz.BackendRC)
	if err != nil {
		return err
	}
	t := report.NewTable("Engine fidelity — transport-delay gate level vs switch-level RC",
		"Triad", "Gate BER (%)", "RC BER (%)", "Gate E/op (fJ)", "RC E/op (fJ)")
	for i := range set {
		t.AddRow(set[i].Label(),
			fmt.Sprintf("%.2f", gate.Triads[i].BER()*100),
			fmt.Sprintf("%.2f", rc.Triads[i].BER()*100),
			fmt.Sprintf("%.1f", gate.Triads[i].EnergyPerOpFJ),
			fmt.Sprintf("%.1f", rc.Triads[i].EnergyPerOpFJ))
	}
	t.Render(os.Stdout)
	return nil
}

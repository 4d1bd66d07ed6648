// Command vosnet is the netlist tooling of the reproduction: it generates
// gate-level operators, writes them in the structural text format, exports
// SPICE characterization decks (the artifact the paper feeds to Eldo), and
// dumps VCD waveforms of individual VOS experiments for waveform viewers.
//
// Usage:
//
//	vosnet -gen rca8 [-o rca8.vnet]                 # generate + write netlist
//	vosnet -stat circuit.vnet                       # report area/timing
//	vosnet -spice circuit.vnet -tclk 0.28 -vdd 0.5 -vbb 2 [-o deck.sp]
//	vosnet -vcd circuit.vnet -a 255 -b 1 -tclk 0.28 -vdd 0.5 [-o wave.vcd]
package main

import (
	"flag"
	"fmt"
	"log"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cell"
	"repro/internal/fdsoi"
	"repro/internal/netfmt"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/spicedeck"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/triad"
	"repro/internal/vcd"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vosnet: ")
	var (
		gen   = flag.String("gen", "", "generate an operator: rca8, bka16, ksa32, skl8, csel16, mul8, loa8x4, tra8x4 ...")
		stat  = flag.String("stat", "", "netlist file to report on")
		spice = flag.String("spice", "", "netlist file to export as a SPICE deck")
		vcdIn = flag.String("vcd", "", "netlist file to simulate into a VCD waveform")
		out   = flag.String("o", "", "output file (default: stdout)")
		tclk  = flag.Float64("tclk", 0.28, "clock period (ns) for -spice/-vcd")
		vdd   = flag.Float64("vdd", 1.0, "supply voltage (V) for -spice/-vcd")
		vbb   = flag.Float64("vbb", 0, "body-bias magnitude (V) for -spice/-vcd")
		aOp   = flag.Uint64("a", 0xFF, "operand a for -vcd")
		bOp   = flag.Uint64("b", 0x01, "operand b for -vcd")
		seed  = flag.Uint64("seed", 1, "mismatch seed for -gen")
	)
	flag.Parse()

	var err error
	switch {
	case *gen != "":
		err = doGen(*gen, *out, *seed)
	case *stat != "":
		err = doStat(*stat)
	case *spice != "":
		err = doSpice(*spice, *out, triad.Triad{Tclk: *tclk, Vdd: *vdd, Vbb: *vbb})
	case *vcdIn != "":
		err = doVCD(*vcdIn, *out, triad.Triad{Tclk: *tclk, Vdd: *vdd, Vbb: *vbb}, *aOp, *bOp)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// parseSpec decodes generator specs like "rca8", "mul8", "loa8x4". seed
// draws the Vt mismatch of the adders and multipliers.
func parseSpec(spec string, seed uint64) (*netlist.Netlist, error) {
	spec = strings.ToLower(spec)
	mismatch := fdsoi.NewMismatchSampler(fdsoi.Default().SigmaVt, seed)
	for _, arch := range synth.Arches() {
		prefix := strings.ToLower(arch.String())
		if w, ok := strings.CutPrefix(spec, prefix); ok {
			width, err := strconv.Atoi(w)
			if err != nil {
				return nil, fmt.Errorf("bad width in %q", spec)
			}
			return synth.NewAdder(arch, synth.AdderConfig{Width: width, Mismatch: mismatch})
		}
	}
	if w, ok := strings.CutPrefix(spec, "mul"); ok {
		width, err := strconv.Atoi(w)
		if err != nil {
			return nil, fmt.Errorf("bad width in %q", spec)
		}
		return synth.ArrayMultiplier(synth.MultiplierConfig{Width: width, Mismatch: mismatch})
	}
	for _, kind := range []string{"loa", "tra"} {
		if rest, ok := strings.CutPrefix(spec, kind); ok {
			parts := strings.SplitN(rest, "x", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("%s wants widthxapprox, e.g. %s8x4", kind, kind)
			}
			width, err1 := strconv.Atoi(parts[0])
			approx, err2 := strconv.Atoi(parts[1])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("bad %s spec %q", kind, spec)
			}
			cfg := synth.ApproxConfig{Width: width, ApproxBits: approx}
			if kind == "loa" {
				return synth.LOA(cfg)
			}
			return synth.TRA(cfg)
		}
	}
	return nil, fmt.Errorf("unknown generator spec %q", spec)
}

func openOut(path string) (*os.File, func(), error) {
	if path == "" {
		return os.Stdout, func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

func doGen(spec, out string, seed uint64) error {
	nl, err := parseSpec(spec, seed)
	if err != nil {
		return err
	}
	f, closeF, err := openOut(out)
	if err != nil {
		return err
	}
	defer closeF()
	return netfmt.Write(f, nl)
}

func loadNetlist(path string) (*netlist.Netlist, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return netfmt.Parse(f)
}

func doStat(path string) error {
	nl, err := loadNetlist(path)
	if err != nil {
		return err
	}
	lib := cell.Default28nmLVT()
	proc := fdsoi.Default()
	rep, err := synth.Synthesize(nl, lib, proc, 2000, 1)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d gates, %d nets, depth %d\n", nl.Name, nl.NumGates(), nl.NumNets(), nl.MaxLevel())
	fmt.Printf("area %.1f µm², leakage %.2f µW\n", rep.Area, rep.LeakagePower)
	fmt.Printf("critical path %.3f ns (true %.3f ns), total power %.1f µW, E/op %.1f fJ\n",
		rep.CriticalPath, rep.TrueCriticalPath, rep.TotalPower, rep.EnergyPerOp)
	an := sta.Analyze(nl, lib, proc, proc.Nominal())
	hist := an.PathDelayHistogram(nl, 8)
	fmt.Printf("output arrival histogram (8 bins to CP): %v\n", hist)
	counts := nl.CellCounts()
	for _, kind := range slices.Sorted(maps.Keys(counts)) {
		fmt.Printf("  %-6s x%d\n", kind, counts[kind])
	}
	return nil
}

func doSpice(path, out string, tr triad.Triad) error {
	nl, err := loadNetlist(path)
	if err != nil {
		return err
	}
	f, closeF, err := openOut(out)
	if err != nil {
		return err
	}
	defer closeF()
	// A small representative stimulus: all-propagate, alternating, and a
	// pseudo-random vector per input port.
	patterns := [][]uint64{}
	for _, vec := range []uint64{0, ^uint64(0), 0xAAAAAAAAAAAAAAAA, 0x0123456789ABCDEF} {
		row := make([]uint64, len(nl.Inputs))
		for i := range row {
			row[i] = vec >> uint(i*7)
		}
		patterns = append(patterns, row)
	}
	return spicedeck.Write(f, nl, cell.Default28nmLVT(), spicedeck.Options{
		Triad:    tr,
		Patterns: patterns,
	})
}

func doVCD(path, out string, tr triad.Triad, a, b uint64) error {
	nl, err := loadNetlist(path)
	if err != nil {
		return err
	}
	if err := tr.Validate(); err != nil {
		return err
	}
	eng := sim.New(nl, cell.Default28nmLVT(), fdsoi.Default(), tr.OperatingPoint())
	stim := netlist.CompileStimulus(nl)
	// The wave opens on the state ResetDense settles on: the zero-delay
	// evaluation of the all-zero input image.
	initial := append([]uint8(nil), stim.Values()...)
	if err := nl.EvaluateInto(initial); err != nil {
		return err
	}
	if err := eng.ResetDense(initial); err != nil {
		return err
	}
	f, closeF, err := openOut(out)
	if err != nil {
		return err
	}
	defer closeF()
	w := vcd.NewWriter(f, nl)
	w.DumpInitial(initial)
	eng.SetTracer(w.Change)
	// The first input port gets a, the second b; any others stay zero.
	for slot, v := range []uint64{a, b}[:min(2, len(nl.Inputs))] {
		stim.SetSlot(slot, v)
	}
	res, err := eng.StepDense(stim.Values(), tr.Tclk)
	if err != nil {
		return err
	}
	w.Marker(tr.Tclk)
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "vosnet: simulated %s at %s: late=%v\n", nl.Name, tr.Label(), res.Late)
	return nil
}

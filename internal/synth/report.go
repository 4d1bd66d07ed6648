package synth

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"

	"repro/internal/cell"
	"repro/internal/fdsoi"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/sta"
)

// STAMargin is the pessimism factor EDA flows add on top of the true
// longest path (clock-path pessimism, OCV derates). The paper calls this
// out explicitly: "EDA tools introduce additional timing margin in the
// datapaths during STA due to clock path pessimism. This additional timing
// prevents timing errors due to variability effects." It is exactly this
// margin that lets moderate voltage over-scaling run error-free (the 0%-BER
// half of Fig. 8).
const STAMargin = 1.28

// Report mirrors the columns of the paper's Table II plus the quantities
// the rest of the flow needs.
type Report struct {
	Name      string
	GateCount int
	// Area is the total cell area (µm²).
	Area float64
	// CriticalPath is the reported (margined) critical path (ns) at the
	// nominal operating point — the number a synthesis timing report would
	// print and the clock the paper derives its triads from.
	CriticalPath float64
	// TrueCriticalPath is the raw STA longest path (ns) without margin.
	TrueCriticalPath float64
	// TotalPower, DynamicPower, LeakagePower are µW at the nominal
	// operating point with the circuit clocked at CriticalPath.
	TotalPower   float64
	DynamicPower float64
	LeakagePower float64
	// EnergyPerOp is the average switching+leakage energy (fJ) per
	// operation at the nominal point and CriticalPath clock.
	EnergyPerOp float64
}

// Synthesize produces the synthesis report for a netlist: area from the
// library, critical path from STA with the pessimism margin, and power from
// zero-delay switching activity over random vectors (the standard
// synthesis-time power estimate).
func Synthesize(nl *netlist.Netlist, lib *cell.Library, proc fdsoi.Params, activityVectors int, seed uint64) (*Report, error) {
	an := sta.Analyze(nl, lib, proc, proc.Nominal())
	if err := an.CheckFinite(); err != nil {
		return nil, err
	}
	r := &Report{
		Name:             nl.Name,
		GateCount:        nl.NumGates(),
		Area:             nl.Area(lib),
		TrueCriticalPath: an.CriticalDelay,
		CriticalPath:     an.CriticalDelay * STAMargin,
		LeakagePower:     nl.LeakagePower(lib),
	}
	// Zero-delay activity estimation: average energy of input-vector
	// transitions, each toggled gate output costing ½CV² + internal energy.
	toggles, err := averageToggleEnergy(nl, lib, activityVectors, seed)
	if err != nil {
		return nil, err
	}
	r.EnergyPerOp = toggles + r.LeakagePower*r.CriticalPath // fJ (µW·ns = fJ)
	r.DynamicPower = toggles / r.CriticalPath
	r.TotalPower = r.DynamicPower + r.LeakagePower
	return r, nil
}

// averageToggleEnergy estimates the mean switching energy (fJ) per input
// transition at the nominal supply using zero-delay evaluation, over
// random input vectors evaluated netlist.BatchLanes at a time through the
// bit-sliced EvaluateBatch. Each vector takes one PCG draw per input bit
// (its LSB), vector by vector in port order, and the energy sums run in
// vector-major, gate-minor order: the figures are those of a scalar loop
// over vectors and gates.
func averageToggleEnergy(nl *netlist.Netlist, lib *cell.Library, vectors int, seed uint64) (float64, error) {
	if vectors < 2 {
		vectors = 2
	}
	rng := rand.NewPCG(seed, 0xda7a)
	// Per-gate toggle energy, hoisted out of the vector loop (NetLoad
	// walks fanouts and allocates).
	gateE := make([]float64, nl.NumGates())
	loads := nl.NetLoads(lib)
	for gi := range nl.Gates {
		g := &nl.Gates[gi]
		c := lib.MustCell(g.Kind)
		gateE[gi] = fdsoi.SwitchingEnergy(loads[g.Output], 1.0) + c.InternalEnergy
		if math.IsInf(gateE[gi], 0) || math.IsNaN(gateE[gi]) {
			return 0, fmt.Errorf("synth: gate %d (%v) toggle energy %v is not finite", gi, g.Kind, gateE[gi])
		}
	}
	var inputs []netlist.NetID
	for _, p := range nl.Inputs {
		inputs = append(inputs, p.Bits...)
	}
	lanes := make([]uint64, nl.NumNets())
	// words[c][k] holds vector k's draws for inputs 64c…64c+63, bit j for
	// input 64c+j; one transpose per block turns them into lane words.
	words := make([][64]uint64, (len(inputs)+63)/64)
	// togs[c][k] is gate 64c+j's toggle under vector k in bit j, after a
	// transpose of the gates' per-vector toggle masks.
	togs := make([][64]uint64, (nl.NumGates()+63)/64)
	prev := make([]uint64, nl.NumGates()) // each gate's output under the previous batch's last vector
	var total float64
	for done := 0; done < vectors; {
		n := min(vectors-done, netlist.BatchLanes)
		clear(togs)
		for k := 0; k < n; k++ {
			for c := range words {
				var w uint64
				for j := range min(64, len(inputs)-c*64) {
					w |= (rng.Uint64() & 1) << uint(j)
				}
				words[c][k] = w
			}
		}
		for c := range words {
			metrics.Transpose64(&words[c])
			for j, id := range inputs[c*64 : min(len(inputs), c*64+64)] {
				lanes[id] = words[c][j]
			}
		}
		if err := nl.EvaluateBatch(lanes); err != nil {
			return 0, err
		}
		// Toggle masks (bit k: vector k differs from its predecessor),
		// transposed into per-vector gate sets. The first vector has no
		// predecessor, and lanes ≥ n carry no vector.
		lm := uint64(1)<<uint(n-1)<<1 - 1
		if done == 0 {
			lm &^= 1
		}
		for gi := range nl.Gates {
			x := lanes[nl.Gates[gi].Output]
			togs[gi>>6][gi&63] = (x ^ (x<<1 | prev[gi])) & lm
			prev[gi] = x >> uint(n-1) & 1
		}
		for c := range togs {
			metrics.Transpose64(&togs[c])
		}
		// Only toggled gates add their energy, in ascending gate order.
		// An untoggled gate would add gateE·0.0, a zero since gateE is
		// finite, and a zero addend leaves the running sum (which starts
		// at +0.0) bit-identical.
		for k := 0; k < n; k++ {
			for c := range togs {
				for m := togs[c][k]; m != 0; m &= m - 1 {
					total += gateE[c*64+bits.TrailingZeros64(m)]
				}
			}
		}
		done += n
	}
	return total / float64(vectors-1), nil
}

package sim

import (
	"math"

	"repro/internal/cell"
	"repro/internal/fdsoi"
	"repro/internal/netlist"
)

// tables is the compiled, operating-point-resolved image of one netlist:
// every dense array the event loops touch, shared verbatim by the scalar
// engine (Engine) and the K×64-lane wide engine (WideEngine). Compiling
// once and embedding keeps the two cores in lockstep by construction —
// same delays, same truth tables, same CSR fanouts — which is half of the
// wide-path parity argument.
type tables struct {
	gateDelay  []float64 // ns per gate at op
	gateEnergy []float64 // fJ per output transition at op
	leakPower  float64   // µW at op

	// Flattened per-gate tables: the event loops touch only these dense
	// arrays, never the netlist's slice-of-slice structures. Gates with
	// fewer than three inputs repeat in0; tt holds the gate's 8-entry
	// truth table (bit a|b<<1|c<<2) for the scalar shift-and-mask eval,
	// and kinds the cell function for the wide engine's bitwise
	// cell.Kind.EvalWord eval — both derived from the same EvalWord, so
	// lane k of the word eval is exactly the scalar tt lookup.
	tt            []uint8
	kinds         []cell.Kind
	in0, in1, in2 []netlist.NetID
	gateOut       []netlist.NetID
	// Fanouts in CSR form: net id's consumers are foList[foOff[id]:foOff[id+1]].
	foOff  []int32
	foList []netlist.GateID

	inputNets   []netlist.NetID
	inputEnergy []float64 // per net (indexed by NetID): fJ per input toggle at op

	// minDelay/maxDelay size the calendar queues.
	minDelay, maxDelay float64
}

// delayQuantum is the dyadic grid gate delays are rounded to (2⁻⁴⁰ ns,
// about ten orders of magnitude below any gate delay). Event
// timestamps are sums of gate delays along causal chains; on the grid
// every such partial sum is an exact integer multiple of the quantum
// (far below 2⁵³ of them), so summation is associative and paths with
// equal delay multisets collide to exactly equal timestamps at every
// operating point instead of differing by summation-order ulps. That
// exactness is half of what keeps the cross-voltage retime's event
// order stable: without it, ulp-close distinct timestamps reorder
// under re-summation at a neighboring Vdd and the order check rejects
// nearly every wave of a reconvergent circuit.
const delayQuantum = 1.0 / (1 << 40)

// ditherBits sizes the per-gate delay dither: a deterministic,
// operating-point-independent offset of up to 2²⁰ quanta (≈ 1e-6 ns,
// ~0.01 % of the smallest gate delay — electrically meaningless)
// added to each gate's quantized delay. It breaks the other half of
// the order-stability problem: reconvergent fabrics (Brent-Kung) have
// many structurally distinct paths whose physical delay sums are
// degenerate (equal cell kinds and loads in different order), and
// degenerate sums land within a quantum or two of each other, where
// per-gate rounding noise at a neighboring Vdd (±½ quantum per gate)
// flips their order and forces a retime fallback. With the dither, two
// such paths differ by the difference of their dither sums — typically
// ~10⁵ quanta, identical in sign and magnitude at every operating
// point because the dither never rescales — so their order is the same
// everywhere and the retime's order check passes. Paths whose physical
// delays genuinely differ are unaffected: the dither is orders of
// magnitude below real delay differences.
const ditherBits = 20

// delayDither returns gate gi's dither in ns (SplitMix64 of the gate
// index, masked to ditherBits quanta).
func delayDither(gi int) float64 {
	z := uint64(gi) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z&(1<<ditherBits-1)) * delayQuantum
}

// compileTables resolves nl at operating point op into the dense image.
func compileTables(nl *netlist.Netlist, lib *cell.Library, proc fdsoi.Params, op fdsoi.OperatingPoint) *tables {
	t := &tables{
		gateDelay:   make([]float64, nl.NumGates()),
		gateEnergy:  make([]float64, nl.NumGates()),
		tt:          make([]uint8, nl.NumGates()),
		kinds:       make([]cell.Kind, nl.NumGates()),
		in0:         make([]netlist.NetID, nl.NumGates()),
		in1:         make([]netlist.NetID, nl.NumGates()),
		in2:         make([]netlist.NetID, nl.NumGates()),
		gateOut:     make([]netlist.NetID, nl.NumGates()),
		inputEnergy: make([]float64, nl.NumNets()),
	}
	dyn := proc.DynamicEnergyScale(op)
	loads := nl.NetLoads(lib) // one pass; bit-identical to per-net NetLoad
	var leakNW float64
	minDelay, maxDelay := math.Inf(1), 0.0
	for gi := range nl.Gates {
		g := &nl.Gates[gi]
		c := lib.MustCell(g.Kind)
		load := loads[g.Output]
		d := math.Round(c.Delay(load)*proc.DelayScale(op, g.VtOffset)/delayQuantum) * delayQuantum
		if d <= 0 {
			d = delayQuantum // keep strict causality: no zero-delay gates
		}
		t.gateDelay[gi] = d + delayDither(gi)
		t.gateEnergy[gi] = fdsoi.SwitchingEnergy(load, op.Vdd) + c.InternalEnergy*dyn
		leakNW += c.Leakage
		if d > 0 && d < minDelay {
			minDelay = d
		}
		if d > maxDelay {
			maxDelay = d
		}
		for m := uint8(0); m < 8; m++ {
			bit := g.Kind.EvalWord(uint64(m&1), uint64(m>>1&1), uint64(m>>2&1)) & 1
			t.tt[gi] |= uint8(bit) << m
		}
		t.kinds[gi] = g.Kind
		t.gateOut[gi] = g.Output
		t.in0[gi], t.in1[gi], t.in2[gi] = g.Inputs[0], g.Inputs[0], g.Inputs[0]
		if len(g.Inputs) > 1 {
			t.in1[gi] = g.Inputs[1]
		}
		if len(g.Inputs) > 2 {
			t.in2[gi] = g.Inputs[2]
		}
	}
	t.foOff = make([]int32, nl.NumNets()+1)
	for id := 0; id < nl.NumNets(); id++ {
		t.foOff[id+1] = t.foOff[id] + int32(len(nl.Fanouts(netlist.NetID(id))))
	}
	t.foList = make([]netlist.GateID, t.foOff[nl.NumNets()])
	for id := 0; id < nl.NumNets(); id++ {
		copy(t.foList[t.foOff[id]:], nl.Fanouts(netlist.NetID(id)))
	}
	t.minDelay, t.maxDelay = minDelay, maxDelay
	t.leakPower = leakNW / 1000 * proc.LeakageScale(op)
	for _, p := range nl.Inputs {
		t.inputNets = append(t.inputNets, p.Bits...)
		for _, b := range p.Bits {
			// The external driver charges the input pin capacitance on
			// every stimulus edge; this keeps deep-VOS operating points
			// (where no internal gate completes within Tclk) from
			// reporting zero energy.
			t.inputEnergy[b] = fdsoi.SwitchingEnergy(loads[b], op.Vdd)
		}
	}
	return t
}

// Package rcsim is a switch-level RC timing simulator: one abstraction
// level below internal/sim and one above SPICE. Every net carries a
// continuous, exponentially settling voltage trajectory; gates drive their
// outputs toward the logic target through an effective RC time constant
// derived from the same FDSOI device model, and downstream gates switch
// when their inputs cross the Vdd/2 threshold.
//
// Compared to the event-driven gate-level engine, rcsim models two analog
// effects that matter under deep voltage over-scaling:
//
//   - partial swings: a net that never reaches the rail before being
//     retargeted carries an intermediate voltage, so the capture register
//     samples whatever side of Vdd/2 the trajectory happens to be on;
//   - inertial glitch filtering: pulses shorter than the RC constant never
//     cross the threshold and die inside the gate.
//
// The package exists to cross-validate internal/sim (both engines must
// agree on error-free operation at safe triads and on the onset ordering
// of failures) and to quantify how much the cheaper transport-delay model
// over-counts glitch transitions. It substitutes for the paper's Eldo
// SPICE runs at one further level of fidelity (DESIGN.md §2).
package rcsim

import (
	"fmt"
	"math"

	"repro/internal/cell"
	"repro/internal/fdsoi"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// ln2 converts a 50%-crossing delay into an RC time constant.
var ln2 = math.Log(2)

// crossEvent marks a predicted threshold crossing of a net.
type crossEvent struct {
	time float64
	seq  uint64
	net  netlist.NetID
	gen  uint32 // generation: stale events are ignored
}

// crossQueue is a typed binary min-heap over (time, seq) — the direct
// replacement for container/heap, whose interface plumbing boxed every
// pushed and popped crossEvent into an allocation. (time, seq) is a
// strict total order, so the pop sequence — and therefore every captured
// word and energy figure — is identical to the interface heap's.
type crossQueue []crossEvent

func (q crossQueue) less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}

func (q *crossQueue) push(ev crossEvent) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	*q = h
}

func (q *crossQueue) pop() crossEvent {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.less(l, min) {
			min = l
		}
		if r < n && h.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	*q = h
	return top
}

// Engine simulates one netlist at one operating point with RC
// trajectories. Not safe for concurrent use.
type Engine struct {
	nl *netlist.Netlist

	tau        []float64 // per net: RC constant of its driver (0 = ideal input)
	gateEnergy []float64 // per gate: fJ per full output swing
	leakPower  float64   // µW

	// Per-net trajectory: v(t) = target + (v0-target)·exp(-(t-t0)/tau).
	v0     []float64
	t0     []float64
	target []float64
	binary []uint8
	segV   []float64 // voltage at segment start (for energy)
	gen    []uint32

	queue crossQueue
	seq   uint64
	now   float64

	inputNets []netlist.NetID
	evalBuf   [3]uint8

	// scratch is ResetDense's evaluation image, so settling never writes
	// the caller's gate-driven entries.
	scratch []uint8

	// res and its buffers are reused by the step entry points.
	res         Result
	capturedBuf []uint8
	settledBuf  []uint8

	// Stats
	crossings uint64
	energyFJ  float64
}

// Compile-time check: the RC engine plugs into the same Stepper seam as the
// gate-level engine.
var _ sim.Stepper = (*Engine)(nil)

// New builds an RC engine. The per-net time constant is chosen so a full
// rail-to-rail transition crosses Vdd/2 after exactly the cell's
// load-dependent propagation delay at this operating point — making the
// two engines nominally consistent on single transitions.
func New(nl *netlist.Netlist, lib *cell.Library, proc fdsoi.Params, op fdsoi.OperatingPoint) *Engine {
	n := nl.NumNets()
	e := &Engine{
		nl:         nl,
		tau:        make([]float64, n),
		gateEnergy: make([]float64, nl.NumGates()),
		v0:         make([]float64, n),
		t0:         make([]float64, n),
		target:     make([]float64, n),
		binary:     make([]uint8, n),
		segV:       make([]float64, n),
		gen:        make([]uint32, n),
		scratch:    make([]uint8, n),
	}
	dyn := proc.DynamicEnergyScale(op)
	var leakNW float64
	for gi := range nl.Gates {
		g := &nl.Gates[gi]
		c := lib.MustCell(g.Kind)
		load := nl.NetLoad(lib, g.Output)
		delay := c.Delay(load) * proc.DelayScale(op, g.VtOffset)
		e.tau[g.Output] = delay / ln2
		e.gateEnergy[gi] = fdsoi.SwitchingEnergy(load, op.Vdd) + c.InternalEnergy*dyn
		leakNW += c.Leakage
	}
	e.leakPower = leakNW / 1000 * proc.LeakageScale(op)
	for _, p := range nl.Inputs {
		e.inputNets = append(e.inputNets, p.Bits...)
	}
	return e
}

// voltage evaluates net id's trajectory at time t ≥ t0.
func (e *Engine) voltage(id netlist.NetID, t float64) float64 {
	tau := e.tau[id]
	if tau == 0 {
		return e.target[id]
	}
	dt := t - e.t0[id]
	if dt < 0 {
		dt = 0
	}
	return e.target[id] + (e.v0[id]-e.target[id])*math.Exp(-dt/tau)
}

// ResetDense settles the engine instantly on the dense input image
// (indexed by NetID; only primary-input entries are read).
func (e *Engine) ResetDense(values []uint8) error {
	if len(values) != len(e.scratch) {
		return fmt.Errorf("rcsim: input image has %d entries, want %d", len(values), len(e.scratch))
	}
	for _, id := range e.inputNets {
		e.scratch[id] = values[id]
	}
	vals := e.scratch
	if err := e.nl.EvaluateInto(vals); err != nil {
		return err
	}
	for id := range e.v0 {
		v := float64(vals[id])
		e.v0[id], e.target[id], e.segV[id] = v, v, v
		e.t0[id] = 0
		e.binary[id] = vals[id]
		e.gen[id]++
	}
	e.queue = e.queue[:0]
	e.now = 0
	return nil
}

// eval recomputes a gate's boolean target from current binary inputs.
func (e *Engine) eval(gi netlist.GateID) uint8 {
	g := &e.nl.Gates[gi]
	for i, src := range g.Inputs {
		e.evalBuf[i] = e.binary[src]
	}
	return g.Kind.Eval(e.evalBuf[:len(g.Inputs)])
}

// retarget points gate gi's output at a new rail starting from its present
// analytic voltage, charging the abandoned segment's partial swing.
func (e *Engine) retarget(gi netlist.GateID, newTarget uint8, t float64) {
	out := e.nl.Gates[gi].Output
	tgt := float64(newTarget)
	if e.target[out] == tgt {
		return
	}
	vNow := e.voltage(out, t)
	// Charge the partial swing covered since the segment began.
	e.energyFJ += math.Abs(vNow-e.segV[out]) * e.gateEnergy[gi]
	e.v0[out], e.t0[out], e.target[out], e.segV[out] = vNow, t, tgt, vNow
	e.gen[out]++
	// Will the trajectory cross Vdd/2? Only if the binary state disagrees
	// with the new target.
	if (e.binary[out] == 1) == (newTarget == 1) {
		return
	}
	// Crossing time: dt = tau · ln((v0−T)/(0.5−T)). If the voltage already
	// sits on the target side of Vdd/2 (ratio ≤ 1) the binary state
	// catches up immediately.
	num, den := vNow-tgt, 0.5-tgt
	dt := 0.0
	if num != 0 && (num > 0) == (den > 0) {
		if ratio := num / den; ratio > 1 {
			dt = e.tau[out] * math.Log(ratio)
		}
	}
	e.seq++
	e.queue.push(crossEvent{time: t + dt, seq: e.seq, net: out, gen: e.gen[out]})
}

// propagate recomputes every fanout gate of net id after its binary state
// changed at time t.
func (e *Engine) propagate(id netlist.NetID, t float64) {
	for _, gi := range e.nl.Fanouts(id) {
		e.retarget(gi, e.eval(gi), t)
	}
}

// capture binarizes every net's analytic voltage at time t into the
// engine-owned captured buffer.
func (e *Engine) capture(t float64) {
	if cap(e.capturedBuf) < len(e.binary) {
		e.capturedBuf = make([]uint8, len(e.binary))
	}
	e.res.Captured = e.capturedBuf[:len(e.binary)]
	for id := range e.res.Captured {
		if e.voltage(netlist.NetID(id), t) >= 0.5 {
			e.res.Captured[id] = 1
		} else {
			e.res.Captured[id] = 0
		}
	}
}

// Result is the outcome of one clocked RC step. It is the shared step
// outcome of the Stepper seam; for rcsim, EnergyFJ is the switching energy
// of the whole step (including post-capture settling — rcsim quantifies
// physics, not per-cycle billing) plus leakage over Tclk, and Captured
// holds the binarized output voltages at the capture edge.
type Result = sim.Result

// StepDense runs the two-vector experiment on a dense input image: from
// the settled previous state, inputs step at t = 0, outputs are sampled
// (analytically) at t = tclk, and the network then settles fully.
//
// The returned Result and its slices are owned by the engine and valid
// until the next step.
func (e *Engine) StepDense(values []uint8, tclk float64) (*Result, error) {
	if !(tclk > 0) { // negated to catch NaN, which the deadline compares would misread
		return nil, fmt.Errorf("rcsim: non-positive tclk %v", tclk)
	}
	if len(values) != len(e.binary) {
		return nil, fmt.Errorf("rcsim: input image has %d entries, want %d", len(values), len(e.binary))
	}
	// Validate the whole image first: a rejected step switches no input.
	for _, id := range e.inputNets {
		if values[id] > 1 {
			return nil, fmt.Errorf("rcsim: non-boolean input on %q", e.nl.Nets[id].Name)
		}
	}
	e.now = 0
	startEnergy := e.energyFJ
	// Ideal input steps.
	for _, id := range e.inputNets {
		v := values[id]
		if e.binary[id] == v {
			continue
		}
		e.binary[id] = v
		fv := float64(v)
		e.v0[id], e.t0[id], e.target[id], e.segV[id] = fv, 0, fv, fv
		e.gen[id]++
		e.propagate(id, 0)
	}
	res := &e.res
	res.Captured, res.Settled, res.EnergyFJ, res.Late = nil, nil, 0, false
	captured := false
	for len(e.queue) > 0 {
		ev := e.queue.pop()
		if ev.gen != e.gen[ev.net] {
			continue // stale: the trajectory was retargeted
		}
		if !captured && ev.time > tclk {
			e.capture(tclk)
			captured = true
		}
		e.now = ev.time
		if ev.time > tclk {
			res.Late = true
		}
		e.binary[ev.net] ^= 1
		e.crossings++
		e.propagate(ev.net, ev.time)
	}
	if !captured {
		e.capture(tclk)
	}
	// Quiescence: every net ends on its target rail; charge the final
	// segments.
	if cap(e.settledBuf) < len(e.binary) {
		e.settledBuf = make([]uint8, len(e.binary))
	}
	res.Settled = e.settledBuf[:len(e.binary)]
	for id := range e.v0 {
		nid := netlist.NetID(id)
		if g := e.nl.Driver(nid); g != netlist.NoGate {
			e.energyFJ += math.Abs(e.target[id]-e.segV[id]) * e.gateEnergy[g]
		}
		e.v0[id], e.segV[id] = e.target[id], e.target[id]
		e.t0[id] = e.now
		res.Settled[id] = uint8(e.target[id])
		e.binary[id] = res.Settled[id]
	}
	res.EnergyFJ = e.energyFJ - startEnergy + e.leakPower*tclk
	e.now = 0
	return res, nil
}

// Crossings returns the total number of threshold crossings simulated —
// the rcsim analogue of gate-level transitions, net of filtered glitches.
func (e *Engine) Crossings() uint64 { return e.crossings }

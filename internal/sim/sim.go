// The package documentation lives in doc.go.
package sim

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/fdsoi"
	"repro/internal/netlist"
)

// gateValue is the scalar engine's event payload: one scheduled output
// change. The full event (qev[gateValue]) is kept at 24 bytes.
type gateValue struct {
	gate  netlist.GateID
	value uint8
}

// Engine simulates one netlist at one fixed operating point. It is not
// safe for concurrent use; characterization sweeps run one Engine per
// goroutine.
type Engine struct {
	nl *netlist.Netlist

	// tables holds the compiled per-gate/per-net dense arrays (delays,
	// energies, truth tables, CSR fanouts), shared with WideEngine.
	*tables

	value     []uint8 // current net values
	scheduled []uint8 // per gate: last scheduled output value
	queue     calQueue[gateValue]
	seq       uint64
	now       float64

	pendingInputEnergy float64

	// res and its backing buffers are reused by the step entry points:
	// StepDense/StreamStepDense return &res, valid until the next call.
	res         Result
	capturedBuf []uint8
	settledBuf  []uint8

	// Stats since last ResetStats.
	stats Stats

	tracer Tracer
}

// Tracer observes every net value change (inputs and gate outputs) with
// its simulation time; used by the VCD dumper. The callback must not
// re-enter the engine.
type Tracer func(tNs float64, net netlist.NetID, v uint8)

// SetTracer installs (or, with nil, removes) a change observer.
func (e *Engine) SetTracer(t Tracer) { e.tracer = t }

// Stats accumulates simulation activity.
type Stats struct {
	// Transitions is the number of net value changes that fired.
	Transitions uint64
	// LateTransitions is the subset that fired after the capture instant
	// of their step (energy spent in the next cycle).
	LateTransitions uint64
	// DynamicEnergy is the switching energy (fJ) of transitions fired
	// before capture, plus leakage·Tclk per step.
	DynamicEnergy float64
	// LeakageEnergy is the integrated leakage (fJ) over the stepped clock
	// periods.
	LeakageEnergy float64
	// Steps counts StepDense/StreamStepDense calls.
	Steps uint64
}

// EnergyFJ is the total energy charged to the executed steps.
func (s Stats) EnergyFJ() float64 { return s.DynamicEnergy + s.LeakageEnergy }

// New builds an engine for nl at operating point op. Delays and energies
// are precomputed once.
func New(nl *netlist.Netlist, lib *cell.Library, proc fdsoi.Params, op fdsoi.OperatingPoint) *Engine {
	e := &Engine{
		nl:        nl,
		tables:    compileTables(nl, lib, proc, op),
		value:     make([]uint8, nl.NumNets()),
		scheduled: make([]uint8, nl.NumGates()),
	}
	e.queue.init(e.minDelay, e.maxDelay, 1)
	return e
}

// GateDelay returns the propagation delay (ns) of gate g at the operating
// point.
func (e *Engine) GateDelay(g netlist.GateID) float64 { return e.gateDelay[g] }

// Stats returns the accumulated statistics.
func (e *Engine) Stats() Stats { return e.stats }

// ResetStats zeroes the accumulated statistics.
func (e *Engine) ResetStats() { e.stats = Stats{} }

// ResetDense instantly settles the circuit to the steady state of the
// dense input image (indexed by NetID; only primary-input entries are
// read), discarding pending events. It is the starting point of every
// two-vector experiment.
func (e *Engine) ResetDense(values []uint8) error {
	if len(values) != len(e.value) {
		return fmt.Errorf("sim: input image has %d entries, want %d", len(values), len(e.value))
	}
	// Validate before touching engine state: a failed ResetDense must
	// leave the previous settled state intact.
	for _, id := range e.inputNets {
		if values[id] > 1 {
			return fmt.Errorf("sim: non-boolean input %d on %q", values[id], e.nl.Nets[id].Name)
		}
	}
	for _, id := range e.inputNets {
		e.value[id] = values[id]
	}
	if err := e.nl.EvaluateInto(e.value); err != nil {
		return err
	}
	for gi := range e.nl.Gates {
		e.scheduled[gi] = e.value[e.nl.Gates[gi].Output]
	}
	e.queue.clear()
	e.now = 0
	return nil
}

// eval recomputes gate gi's output from current net values: one truth-table
// lookup, branchless.
func (e *Engine) eval(gi netlist.GateID) uint8 {
	idx := e.value[e.in0[gi]] | e.value[e.in1[gi]]<<1 | e.value[e.in2[gi]]<<2
	return e.tt[gi] >> idx & 1
}

// touch re-evaluates a gate after one of its inputs changed and schedules
// an output event when the target value differs from the last scheduled
// one.
func (e *Engine) touch(gi netlist.GateID) {
	v := e.eval(gi)
	if v == e.scheduled[gi] {
		return
	}
	e.scheduled[gi] = v
	e.seq++
	e.queue.push(qev[gateValue]{
		time:    e.now + e.gateDelay[gi],
		seq:     e.seq,
		payload: gateValue{gate: gi, value: v},
	})
}

// applyInputs forces the primary inputs to the dense image's values at the
// current time and seeds the event wave. The whole image is validated
// first, as in ResetDense: a rejected step switches no input.
func (e *Engine) applyInputs(values []uint8) error {
	if len(values) != len(e.value) {
		return fmt.Errorf("sim: input image has %d entries, want %d", len(values), len(e.value))
	}
	for _, id := range e.inputNets {
		if values[id] > 1 {
			return fmt.Errorf("sim: non-boolean input %d on %q", values[id], e.nl.Nets[id].Name)
		}
	}
	for _, id := range e.inputNets {
		v := values[id]
		if e.value[id] == v {
			continue
		}
		e.value[id] = v
		e.pendingInputEnergy += e.inputEnergy[id]
		if e.tracer != nil {
			e.tracer(e.now, id, v)
		}
		for _, fo := range e.foList[e.foOff[id]:e.foOff[id+1]] {
			e.touch(fo)
		}
	}
	return nil
}

// Result is the outcome of one clocked step.
type Result struct {
	// Captured holds the output-net values sampled at the capture instant.
	Captured []uint8
	// Settled holds the final steady-state values (StepDense only; nil
	// for StreamStepDense, where the circuit never settles between
	// vectors).
	Settled []uint8
	// EnergyFJ is the energy charged to this step: switching before
	// capture plus leakage over Tclk.
	EnergyFJ float64
	// Late reports whether any event fired after the capture instant —
	// i.e. whether the step had a timing violation anywhere (not
	// necessarily visible at an output).
	Late bool
}

// CapturedWord packs the captured bits of output port name.
func (r *Result) CapturedWord(nl *netlist.Netlist, name string) (uint64, bool) {
	p, ok := nl.OutputPort(name)
	if !ok {
		return 0, false
	}
	return netlist.PortValue(p, r.Captured), true
}

// SettledWord packs the settled bits of output port name.
func (r *Result) SettledWord(nl *netlist.Netlist, name string) (uint64, bool) {
	p, ok := nl.OutputPort(name)
	if !ok || r.Settled == nil {
		return 0, false
	}
	return netlist.PortValue(p, r.Settled), true
}

// StepDense performs the two-vector timing experiment of the
// characterization flow: from the current settled state, the inputs switch
// to the dense image's values at t = 0; outputs are captured at t = tclk;
// simulation then runs to quiescence so the next step starts settled
// (mirroring a test bench that allows full settling between launch edges).
//
// The returned Result and its slices are owned by the engine and valid
// until the next step; a 20 000-vector sweep allocates nothing here.
func (e *Engine) StepDense(values []uint8, tclk float64) (*Result, error) {
	if !(tclk > 0) { // negated to catch NaN, which popIfBefore would misread
		return nil, fmt.Errorf("sim: non-positive tclk %v", tclk)
	}
	e.now = 0
	e.pendingInputEnergy = 0
	if err := e.applyInputs(values); err != nil {
		return nil, err
	}
	res := &e.res
	res.Captured, res.Settled, res.EnergyFJ, res.Late = nil, nil, 0, false
	dynBefore := e.pendingInputEnergy
	// Phase 1: events up to the capture edge. Splitting at tclk removes
	// the captured/late branches from both per-event loops.
	for {
		ev, ok := e.queue.popIfBefore(tclk)
		if !ok {
			break
		}
		e.now = ev.time
		out := e.gateOut[ev.payload.gate]
		if e.value[out] == ev.payload.value {
			continue
		}
		e.value[out] = ev.payload.value
		e.stats.Transitions++
		if e.tracer != nil {
			e.tracer(ev.time, out, ev.payload.value)
		}
		dynBefore += e.gateEnergy[ev.payload.gate]
		for _, fo := range e.foList[e.foOff[out]:e.foOff[out+1]] {
			e.touch(fo)
		}
	}
	res.Captured = append(e.capturedBuf[:0], e.value...)
	e.capturedBuf = res.Captured
	// Phase 2: post-capture settling; transitions here are late and charged
	// to the next cycle.
	for {
		ev, ok := e.queue.popMin()
		if !ok {
			break
		}
		e.now = ev.time
		out := e.gateOut[ev.payload.gate]
		if e.value[out] == ev.payload.value {
			continue
		}
		e.value[out] = ev.payload.value
		e.stats.Transitions++
		if e.tracer != nil {
			e.tracer(ev.time, out, ev.payload.value)
		}
		res.Late = true
		e.stats.LateTransitions++
		for _, fo := range e.foList[e.foOff[out]:e.foOff[out+1]] {
			e.touch(fo)
		}
	}
	res.Settled = append(e.settledBuf[:0], e.value...)
	e.settledBuf = res.Settled
	leak := e.leakPower * tclk
	res.EnergyFJ = dynBefore + leak
	e.stats.DynamicEnergy += dynBefore
	e.stats.LeakageEnergy += leak
	e.stats.Steps++
	e.now = 0
	return res, nil
}

// StreamStepDense applies the dense image's inputs at the current
// simulation time and samples the outputs one clock period later without
// waiting for quiescence: leftover events from earlier vectors keep firing,
// exactly like a free-running datapath clocked faster than it settles. Use
// ResetDense first to establish an initial state.
//
// The returned Result is owned by the engine and valid until the next step.
func (e *Engine) StreamStepDense(values []uint8, tclk float64) (*Result, error) {
	if !(tclk > 0) { // negated to catch NaN, which popIfBefore would misread
		return nil, fmt.Errorf("sim: non-positive tclk %v", tclk)
	}
	e.pendingInputEnergy = 0
	if err := e.applyInputs(values); err != nil {
		return nil, err
	}
	deadline := e.now + tclk
	res := &e.res
	res.Captured, res.Settled, res.EnergyFJ, res.Late = nil, nil, 0, false
	dynBefore := e.pendingInputEnergy
	for {
		ev, ok := e.queue.popIfBefore(deadline)
		if !ok {
			break
		}
		e.now = ev.time
		out := e.gateOut[ev.payload.gate]
		if e.value[out] == ev.payload.value {
			continue
		}
		e.value[out] = ev.payload.value
		e.stats.Transitions++
		if e.tracer != nil {
			e.tracer(ev.time, out, ev.payload.value)
		}
		dynBefore += e.gateEnergy[ev.payload.gate]
		for _, fo := range e.foList[e.foOff[out]:e.foOff[out+1]] {
			e.touch(fo)
		}
	}
	// Pending events are not timing-charged here: they will fire (and be
	// counted) inside a later step's window.
	res.Late = e.queue.len() > 0
	res.Captured = append(e.capturedBuf[:0], e.value...)
	e.capturedBuf = res.Captured
	e.now = deadline
	leak := e.leakPower * tclk
	res.EnergyFJ = dynBefore + leak
	e.stats.DynamicEnergy += dynBefore
	e.stats.LeakageEnergy += leak
	e.stats.Steps++
	return res, nil
}

package sim

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/netlist"
)

// wideOut is one tracked net's value change in a wide trace: the slot
// that changed and the effective-event index the change rode on, which
// is what lets a retime place the change at another operating point's
// time. The changed block itself lives at outWords[i·K : i·K+K] for
// outs[i].
type wideOut struct {
	slot int32
	ev   int32
}

// WideTrace is the retime log of one StepWideTrace call: the full event
// history of a K×64-lane two-vector experiment run to quiescence at one
// electrical operating point, kept in the operating-point-independent
// form RetimeTrace replays at a neighboring Vdd without re-simulating.
// It holds, per effective event in chronological order, the gate that
// fired it, its causal parent event and its changed-lane block; the
// distinct event timestamps, which delimit the runs of events the
// retime order check may not merge; the tracked nets' blocks at t = 0⁺
// and their chronological value changes; and the t = 0 input-toggle
// set. The recording point's own clocks are captured during its walk
// (see WideSample) and are not part of the trace.
//
// The log is always complete, whatever clocks the recording call
// captured. A trace is owned by the engine that recorded it and valid
// until that engine's next StepWideTrace call.
type WideTrace struct {
	k int

	// start holds, per tracked slot, the net's K-word lane block at
	// t = 0⁺ (after the input switch).
	start []uint64

	times []float64 // distinct event timestamps, ascending
	evEnd []int32   // per timestamp: end index (exclusive) into the event log

	// The per-effective-event log, chronological. gates[i] fired the
	// event, parent[i] is the effective event during whose processing it
	// was pushed (-1 = t = 0 input switch), diffs[i·K : i·K+K] its
	// changed-lane block.
	gates  []netlist.GateID
	parent []int32
	diffs  []uint64

	outs     []wideOut
	outWords []uint64 // K words per out event, aligned with outs

	// The t = 0 input-toggle log in applyInputs order: which input nets
	// toggled and their changed-lane blocks. A retime replays it against
	// the target operating point's input-pin energies.
	inTogIDs   []netlist.NetID
	inTogDiffs []uint64
}

// EventTimes appends the trace's distinct event timestamps to buf and
// returns it. Exposed for tests and diagnostics (a clock placed exactly
// on an event timestamp captures that event, matching the queue's
// inclusive pop).
func (t *WideTrace) EventTimes(buf []float64) []float64 {
	return append(buf, t.times...)
}

// WideSample is one clock period's capture of a StepWideTrace or
// RetimeTrace walk: exactly what StepWideChunk at that Tclk returns for
// the tracked nets. CapturedW is indexed by tracked slot times K (the
// order of the tracked argument to StepWideTrace). The struct is
// caller-owned; the walks reuse its buffers, so a steady-state sweep
// allocates nothing here.
type WideSample struct {
	// CapturedW holds the tracked nets' lane blocks at the capture
	// instant: bit b of CapturedW[s·K+j] is tracked net s's value under
	// pattern j·64+b.
	CapturedW []uint64
	// EnergyFJ is the K·64 per-lane energy at this clock, bit-identical
	// to a StepWideChunk (and therefore to a scalar StepDense) at the
	// same Tclk.
	EnergyFJ []float64
	// LateW flags lanes with at least one post-capture transition, one
	// word per lane word.
	LateW []uint64
}

// checkClocks validates a walk's capture request: positive clocks in
// ascending order, one sample each.
func checkClocks(clocks []float64, samples []WideSample) error {
	if len(samples) != len(clocks) {
		return fmt.Errorf("sim: %d samples for %d clocks", len(samples), len(clocks))
	}
	prev := 0.0
	for _, c := range clocks {
		if !(c > 0) { // negated to catch NaN
			return fmt.Errorf("sim: non-positive tclk %v", c)
		}
		if c < prev {
			return fmt.Errorf("sim: clocks not ascending (%v after %v)", c, prev)
		}
		prev = c
	}
	return nil
}

// setEnergy fills the sample's lane energies: the running per-lane
// switching energy plus leakage over the clock, the one addition per
// lane StepWideChunk makes.
func (s *WideSample) setEnergy(lane []float64, leak float64) {
	s.EnergyFJ = s.EnergyFJ[:0]
	for _, le := range lane {
		s.EnergyFJ = append(s.EnergyFJ, le+leak)
	}
}

// fillLateMasks gives each sample its late mask in one backward OR pass
// over the wave's changed-lane blocks: sample c's mask is the OR of
// every block from event from[c] — the first event past its clock — to
// the end of the wave, horizon or not. from is ascending with the
// clocks.
func fillLateMasks(diffs []uint64, k int, from []int32, samples []WideSample) {
	var acc [MaxWideWords]uint64
	i := len(diffs) / k
	for c := len(samples) - 1; c >= 0; c-- {
		for ; i > int(from[c]); i-- {
			blk := diffs[(i-1)*k : i*k]
			for j := 0; j < k; j++ {
				acc[j] |= blk[j]
			}
		}
		samples[c].LateW = append(samples[c].LateW[:0], acc[:k]...)
	}
}

// StepWideTrace runs the K×64-lane two-vector experiment of
// StepWideChunk to full quiescence and captures every clock of the
// operating point in the same walk: samples[c] receives exactly what
// StepWideChunk at clocks[c] returns for the tracked nets. clocks must
// be positive and ascending, one sample each; none at all records only
// the trace. Per-lane energy attribution stops once the last clock is
// captured, while the wave and its retime log run on to quiescence, so
// the returned trace can serve neighboring operating points through
// RetimeTrace.
//
// The returned trace is owned by the engine and valid until the next
// call; a steady-state sweep allocates nothing here. The engine's Stats
// book the run's Transitions and Steps; the Tclk-dependent split
// (DynamicEnergy, LeakageEnergy, LateTransitions) belongs to the
// clocks and is not booked.
func (e *WideEngine) StepWideTrace(prev, cur []uint64, tracked []netlist.NetID, clocks []float64, samples []WideSample) (*WideTrace, error) {
	if err := checkClocks(clocks, samples); err != nil {
		return nil, err
	}
	k := e.k
	if len(prev) != len(e.valueW) || len(cur) != len(e.valueW) {
		return nil, fmt.Errorf("sim: lane images have %d/%d entries, want %d",
			len(prev), len(cur), len(e.valueW))
	}
	if e.slotOf == nil {
		e.slotOf = make([]int32, e.nl.NumNets())
		for i := range e.slotOf {
			e.slotOf[i] = -1
		}
	}
	for _, id := range tracked {
		if int(id) < 0 || int(id) >= len(e.slotOf) {
			return nil, fmt.Errorf("sim: tracked net %d outside netlist", id)
		}
	}
	// Untrack on every exit so a failed call cannot poison the next one.
	defer func() {
		for _, id := range tracked {
			e.slotOf[id] = -1
		}
	}()
	for s, id := range tracked {
		if e.slotOf[id] >= 0 {
			return nil, fmt.Errorf("sim: net %d tracked twice", id)
		}
		e.slotOf[id] = int32(s)
	}
	if err := e.settle(prev); err != nil {
		return nil, err
	}
	tr := &e.trace
	tr.k = k
	tr.times = tr.times[:0]
	tr.evEnd = tr.evEnd[:0]
	tr.gates = tr.gates[:0]
	tr.parent = tr.parent[:0]
	tr.diffs = tr.diffs[:0]
	tr.outs = tr.outs[:0]
	tr.outWords = tr.outWords[:0]
	tr.inTogIDs = tr.inTogIDs[:0]
	tr.inTogDiffs = tr.inTogDiffs[:0]
	// Switch the inputs to the current vectors and seed the wave,
	// logging the toggle set; nets are visited in the scalar applyInputs
	// order and words ascending, so per-lane input-energy accumulation
	// order matches StepWideChunk — and a retime replaying the same log
	// against another op's pin energies matches that op's.
	var dblk [MaxWideWords]uint64
	for _, id := range e.inputNets {
		base := int(id) * k
		var words uint64
		for j := 0; j < k; j++ {
			d := e.valueW[base+j] ^ cur[base+j]
			dblk[j] = d
			if d != 0 {
				words |= 1 << uint(j)
			}
		}
		if words == 0 {
			continue
		}
		ie := e.inputEnergy[id]
		for j := 0; j < k; j++ {
			d := dblk[j]
			if d == 0 {
				continue
			}
			e.valueW[base+j] = cur[base+j]
			lb := j * WordLanes
			for ; d != 0; d &= d - 1 {
				e.laneEnergy[lb+bits.TrailingZeros64(d)] += ie
			}
		}
		tr.inTogIDs = append(tr.inTogIDs, id)
		tr.inTogDiffs = append(tr.inTogDiffs, dblk[:k]...)
		for _, fo := range e.foList[e.foOff[id]:e.foOff[id+1]] {
			e.touch(fo, words)
		}
	}
	// Snapshot the tracked nets after the input switch.
	tr.start = tr.start[:0]
	for _, id := range tracked {
		tr.start = append(tr.start, e.valueW[int(id)*k:int(id)*k+k]...)
	}
	from := e.clockScratch(len(clocks))
	// capture records clock c from the live state: every event at or
	// before it has fired, none after it has.
	capture := func(c int) {
		s := &samples[c]
		s.CapturedW = s.CapturedW[:0]
		for _, id := range tracked {
			s.CapturedW = append(s.CapturedW, e.valueW[int(id)*k:int(id)*k+k]...)
		}
		s.setEnergy(e.laneEnergy, e.leakPower*clocks[c])
		from[c] = int32(len(tr.gates))
	}
	// Run the wave dry in (time, seq) order, capturing each clock just
	// before the first event past it, one boundary per distinct event
	// time. Attribution (per-lane energy adds) stops after the last
	// clock; the event log never does.
	ci := 0
	curTime := math.Inf(-1)
	for {
		ev, ok := e.queue.popMin()
		if !ok {
			break
		}
		for ci < len(clocks) && ev.time > clocks[ci] {
			capture(ci)
			ci++
		}
		e.now = ev.time
		gi := ev.payload.gate
		outNet := int(e.gateOut[gi])
		out := outNet * k
		pay := e.arena[int(ev.payload.slot)*k : int(ev.payload.slot)*k+k]
		var words uint64
		for j := 0; j < k; j++ {
			d := e.valueW[out+j] ^ pay[j]
			dblk[j] = d
			if d != 0 {
				words |= 1 << uint(j)
			}
		}
		if words == 0 {
			continue // squashed: inert at every operating point
		}
		evIdx := int32(len(tr.gates))
		if ev.time != curTime {
			if len(tr.times) > 0 {
				tr.evEnd = append(tr.evEnd, evIdx)
			}
			tr.times = append(tr.times, ev.time)
			curTime = ev.time
		}
		attribute := ci < len(clocks)
		ge := e.gateEnergy[gi]
		for j := 0; j < k; j++ {
			d := dblk[j]
			if d == 0 {
				continue
			}
			e.valueW[out+j] = pay[j]
			e.stats.Transitions += uint64(bits.OnesCount64(d))
			if attribute {
				lb := j * WordLanes
				for ; d != 0; d &= d - 1 {
					e.laneEnergy[lb+bits.TrailingZeros64(d)] += ge
				}
			}
		}
		tr.gates = append(tr.gates, gi)
		tr.parent = append(tr.parent, ev.payload.parent)
		tr.diffs = append(tr.diffs, dblk[:k]...)
		if slot := e.slotOf[outNet]; slot >= 0 {
			tr.outs = append(tr.outs, wideOut{slot: slot, ev: evIdx})
			tr.outWords = append(tr.outWords, pay...)
		}
		e.curParent = evIdx
		for _, fo := range e.foList[e.foOff[outNet]:e.foOff[outNet+1]] {
			e.touch(fo, words)
		}
	}
	if len(tr.times) > 0 {
		tr.evEnd = append(tr.evEnd, int32(len(tr.gates)))
	}
	for ; ci < len(clocks); ci++ {
		capture(ci)
	}
	fillLateMasks(tr.diffs, k, from, samples)
	e.curParent = -1
	e.stats.Steps += uint64(WordLanes * k)
	e.now = 0
	return tr, nil
}

// clockScratch returns the engine's per-clock event-index buffer, grown
// to n entries.
func (e *WideEngine) clockScratch(n int) []int32 {
	if cap(e.from) < n {
		e.from = make([]int32, n)
	}
	return e.from[:n]
}

// RetimeTrace re-times src's recorded wave at this engine's operating
// point without re-simulating and captures the given clocks from it,
// filling samples exactly as StepWideTrace at this operating point
// would. It first re-derives every effective event's firing time under
// the engine's delay table — exactly the floats a fresh simulation
// computes, since a pushed event's time is always its parent's firing
// time plus the gate delay — and checks that the recorded order
// survives: non-decreasing overall, strictly increasing across distinct
// source timestamps (equal retimed times are only safe within one
// source timestamp, where the recorded order is already the seq order
// equal-time pops resolve to). If the order holds, the retimed wave is
// the fresh simulation's wave, event for event — same pushes in the
// same relative order, same squash pattern, same per-lane accumulation
// sequences — and one walk of the log captures every clock: the base
// energy replays the input-toggle log against this op's pin energies,
// each event up to the last clock adds this op's gate energy, the
// tracked blocks apply the recorded out events, and the late masks are
// one backward OR pass. If any event pair would reorder, it reports
// false with the samples unspecified and the caller must fall back to
// fresh simulation; RetimeStats counts both outcomes. The order check
// alone is an early-aborting O(events) pass, so a rejected retime costs
// almost nothing.
//
// Every retime reads the source's log and writes only engine scratch and
// the samples, so one fresh anchor trace serves any number of points.
func (e *WideEngine) RetimeTrace(src *WideTrace, clocks []float64, samples []WideSample) (bool, error) {
	if src.k != e.k {
		return false, fmt.Errorf("sim: retime across lane widths %d vs %d", src.k, e.k)
	}
	if err := checkClocks(clocks, samples); err != nil {
		return false, err
	}
	n := len(src.gates)
	if cap(e.t2) < n {
		e.t2 = make([]float64, n)
	}
	t2 := e.t2[:n]
	// Pass 1: retimed firing times + order check. Early abort on the
	// first violation keeps a failed check nearly free.
	prevT2 := 0.0
	bi := 0
	prevBi := -1
	for i := 0; i < n; i++ {
		for bi < len(src.evEnd) && int32(i) >= src.evEnd[bi] {
			bi++
		}
		pt := 0.0
		if p := src.parent[i]; p >= 0 {
			pt = t2[p]
		}
		ti := pt + e.gateDelay[src.gates[i]]
		t2[i] = ti
		if i > 0 && (ti < prevT2 || (ti == prevT2 && bi != prevBi)) {
			e.retimeFallback++
			return false, nil
		}
		prevT2, prevBi = ti, bi
	}
	// Pass 2: walk the retimed wave up to the last clock. The engine's
	// lane accumulator and tracked-block scratch are free — no
	// simulation is in flight during a retime.
	k := e.k
	lane := e.laneEnergy
	for i := range lane {
		lane[i] = 0
	}
	for t, id := range src.inTogIDs {
		ie := e.inputEnergy[id]
		blk := src.inTogDiffs[t*k : t*k+k]
		for j := 0; j < k; j++ {
			lb := j * WordLanes
			for d := blk[j]; d != 0; d &= d - 1 {
				lane[lb+bits.TrailingZeros64(d)] += ie
			}
		}
	}
	held := append(e.held[:0], src.start...)
	e.held = held
	from := e.clockScratch(len(clocks))
	oi := 0
	// capture records clock c before event i, the first one past it:
	// the tracked blocks take every recorded change of an earlier event.
	capture := func(c, i int) {
		for ; oi < len(src.outs) && int(src.outs[oi].ev) < i; oi++ {
			o := src.outs[oi]
			copy(held[int(o.slot)*k:int(o.slot)*k+k], src.outWords[oi*k:oi*k+k])
		}
		s := &samples[c]
		s.CapturedW = append(s.CapturedW[:0], held...)
		s.setEnergy(lane, e.leakPower*clocks[c])
		from[c] = int32(i)
	}
	ci := 0
	for i := 0; i < n && ci < len(clocks); i++ {
		for ci < len(clocks) && t2[i] > clocks[ci] {
			capture(ci, i)
			ci++
		}
		if ci == len(clocks) {
			break
		}
		ge := e.gateEnergy[src.gates[i]]
		blk := src.diffs[i*k : i*k+k]
		for j := 0; j < k; j++ {
			lb := j * WordLanes
			for d := blk[j]; d != 0; d &= d - 1 {
				lane[lb+bits.TrailingZeros64(d)] += ge
			}
		}
	}
	for ; ci < len(clocks); ci++ {
		capture(ci, n)
	}
	fillLateMasks(src.diffs, k, from, samples)
	e.retimeOK++
	return true, nil
}

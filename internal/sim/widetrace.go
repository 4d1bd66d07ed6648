package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/fdsoi"
	"repro/internal/netlist"
)

// wideOut is one tracked net's value change in a wide trace: the
// capture-boundary walk needs (time, slot); ev is the effective-event
// index the change rode on, which is what lets a retime re-stamp the
// change at another operating point's time. The changed block itself
// lives at outWords[i·K : i·K+K] for outs[i].
type wideOut struct {
	time float64
	slot int32
	ev   int32
}

// widePrefixStride is the boundary interval between stored per-lane
// energy-prefix snapshots in a wide trace (K·64 floats per row). A
// denser stride trades trace-capture memory traffic (one row copy per
// snapshot) against resample replay work (at most stride−1 boundaries'
// charge records re-accumulated from the nearest snapshot). Purely a
// performance knob — replay re-applies identical additions in identical
// order, so any value yields bit-identical resamples.
const widePrefixStride = 64

// WideTrace is the captured outcome of one StepWideTrace call: the full
// event history of a K×64-lane two-vector experiment run to quiescence
// at one electrical operating point. Any clock period is then answered
// by Resample without re-simulating — the event schedule of a
// fixed-operating-point netlist does not depend on when the capture
// register samples it.
//
// The history is stored deadline-ready: the distinct event timestamps
// ascending, each one's run of the event log delimited by evEnd;
// per-lane switching-energy snapshots — the exact floats, in the exact
// addition order, a StepWideChunk captured at that instant would hold —
// every widePrefixStride timestamps; suffix late masks; and the tracked
// nets' value changes, chronologically. It also records the retime log
// — per effective event its firing gate and causal parent, plus the
// t = 0 input-toggle set — which is what RetimeTrace needs to re-stamp
// the wave at a neighboring Vdd without re-simulating.
//
// Energy attribution is capped by a capture horizon: per-lane charge
// attribution and prefix snapshots are only maintained for events at
// t ≤ horizon, and Resample rejects deadlines beyond it. Deep-VOS
// operating points place almost every event after their largest clock
// period, so the horizon turns the dominant per-lane attribution work
// into a no-op there; the event history itself (order, gates, parents,
// diffs) is always recorded in full, so a horizon-capped trace is still
// a complete retime source.
//
// A trace produced by StepWideTrace is owned by the engine and valid
// until the next StepWideTrace call; a trace filled by RetimeTrace
// aliases the source's operating-point-independent arrays and is valid
// only while the source is.
type WideTrace struct {
	k         int
	op        fdsoi.OperatingPoint
	horizon   float64
	leakPower float64
	// full marks an engine-recorded trace whose boundary log covers the
	// entire wave — the only kind RetimeTrace accepts as a source. A
	// retimed trace collapses its post-horizon boundaries into one OR
	// (it only ever answers Resample calls at tclk ≤ horizon) and is
	// not a valid retime source.
	full bool

	// start holds, per tracked slot, the net's K-word lane block at
	// t = 0⁺ (after the input switch).
	start []uint64
	// base holds the K·64 per-lane input-pin switching energies charged
	// at t = 0.
	base []float64

	times []float64 // distinct event timestamps, ascending
	evEnd []int32   // per timestamp: end index (exclusive) into the event log

	// The per-effective-event log, chronological. gates[i] fired the
	// event, parent[i] is the effective event during whose processing it
	// was pushed (-1 = t = 0 input switch), energy[i] its per-changed-lane
	// switching energy at op, diffs[i·K : i·K+K] its changed-lane block.
	gates  []netlist.GateID
	parent []int32
	energy []float64
	diffs  []uint64

	prefix []float64 // flat K·64 energy snapshots at boundaries 0, stride, 2·stride, … within the horizon
	orAt   []uint64  // per boundary: K-word OR of its events' changed-lane blocks
	suffix []uint64  // per boundary: K-word OR of every later changed-lane block
	// lateAll is the OR of every changed-lane block — the late mask of a
	// deadline before the first event.
	lateAll []uint64

	outs     []wideOut
	outWords []uint64 // K words per out event, aligned with outs

	// The t = 0 input-toggle log in applyInputs order: which input nets
	// toggled and their changed-lane blocks. A retime replays it against
	// the target operating point's input-pin energies to rebuild base.
	inTogIDs   []netlist.NetID
	inTogDiffs []uint64
}

// K returns the trace's lane-block width in words.
func (t *WideTrace) K() int { return t.k }

// Events returns the number of distinct event timestamps in the trace.
func (t *WideTrace) Events() int { return len(t.times) }

// EventTimes appends the trace's distinct event timestamps to buf and
// returns it. Exposed for tests and diagnostics (a deadline placed
// exactly on an event timestamp captures that event, matching the
// queue's inclusive pop).
func (t *WideTrace) EventTimes(buf []float64) []float64 {
	return append(buf, t.times...)
}

// StepWideTrace runs the K×64-lane two-vector experiment of
// StepWideChunk to full quiescence with no capture deadline, recording
// the event history instead of splitting it at a Tclk. tracked lists
// the nets whose captured values resamples must report; horizon is the
// largest deadline the trace must answer (math.Inf(1) for unlimited) —
// per-lane energy attribution and prefix snapshots stop past it, the
// event/retime log does not.
//
// One trace serves every clock period ≤ horizon at the operating point
// via Resample, bit-identical to StepWideChunk at the same tclk, and
// doubles as the source wave for RetimeTrace at neighboring operating
// points. The returned trace is owned by the engine and valid until
// the next call; a steady-state sweep allocates nothing here. The
// engine's Stats book the trace run's Transitions and Steps; the
// Tclk-dependent split (DynamicEnergy, LeakageEnergy, LateTransitions)
// belongs to the resamples and is not booked.
func (e *WideEngine) StepWideTrace(prev, cur []uint64, tracked []netlist.NetID, horizon float64) (*WideTrace, error) {
	if !(horizon > 0) { // negated to catch NaN
		return nil, fmt.Errorf("sim: non-positive trace horizon %v", horizon)
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
	tr.op = e.op
	tr.horizon = horizon
	tr.leakPower = e.leakPower
	tr.full = true
	tr.times = tr.times[:0]
	tr.evEnd = tr.evEnd[:0]
	tr.gates = tr.gates[:0]
	tr.parent = tr.parent[:0]
	tr.energy = tr.energy[:0]
	tr.diffs = tr.diffs[:0]
	tr.prefix = tr.prefix[:0]
	tr.orAt = tr.orAt[:0]
	tr.outs = tr.outs[:0]
	tr.outWords = tr.outWords[:0]
	tr.inTogIDs = tr.inTogIDs[:0]
	tr.inTogDiffs = tr.inTogDiffs[:0]
	// Switch the inputs to the current vectors and seed the wave,
	// logging the toggle set; nets are visited in the scalar applyInputs
	// order and words ascending, so per-lane base-energy accumulation
	// order matches the non-trace paths — and a retime replaying the
	// same log against another op's pin energies matches that op's.
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
	tr.base = append(tr.base[:0], e.laneEnergy...)
	// Snapshot the tracked nets after the input switch.
	tr.start = tr.start[:0]
	for _, id := range tracked {
		tr.start = append(tr.start, e.valueW[int(id)*k:int(id)*k+k]...)
	}
	// Run the wave dry in (time, seq) order, one boundary per distinct
	// event time. Attribution (per-lane energy adds, prefix snapshots)
	// stops past the horizon; the event log never does.
	var curOr [MaxWideWords]uint64
	curTime := 0.0
	open := false
	flush := func() {
		if len(tr.times)%widePrefixStride == 0 && curTime <= horizon {
			tr.prefix = append(tr.prefix, e.laneEnergy...)
		}
		tr.times = append(tr.times, curTime)
		tr.evEnd = append(tr.evEnd, int32(len(tr.gates)))
		tr.orAt = append(tr.orAt, curOr[:k]...)
		for j := 0; j < k; j++ {
			curOr[j] = 0
		}
	}
	for {
		ev, ok := e.queue.popMin()
		if !ok {
			break
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
		if !open || ev.time != curTime {
			if open {
				flush()
			}
			curTime, open = ev.time, true
		}
		attribute := ev.time <= horizon
		ge := e.gateEnergy[gi]
		for j := 0; j < k; j++ {
			d := dblk[j]
			if d == 0 {
				continue
			}
			e.valueW[out+j] = pay[j]
			curOr[j] |= d
			e.stats.Transitions += uint64(bits.OnesCount64(d))
			if attribute {
				lb := j * WordLanes
				for ; d != 0; d &= d - 1 {
					e.laneEnergy[lb+bits.TrailingZeros64(d)] += ge
				}
			}
		}
		evIdx := int32(len(tr.gates))
		tr.gates = append(tr.gates, gi)
		tr.parent = append(tr.parent, ev.payload.parent)
		tr.energy = append(tr.energy, ge)
		tr.diffs = append(tr.diffs, dblk[:k]...)
		if slot := e.slotOf[outNet]; slot >= 0 {
			tr.outs = append(tr.outs, wideOut{time: ev.time, slot: slot, ev: evIdx})
			tr.outWords = append(tr.outWords, pay...)
		}
		e.curParent = evIdx
		for _, fo := range e.foList[e.foOff[outNet]:e.foOff[outNet+1]] {
			e.touch(fo, words)
		}
	}
	if open {
		flush()
	}
	e.curParent = -1
	// Late masks are K-word suffix ORs over the boundaries.
	nb := len(tr.times)
	if cap(tr.suffix) < nb*k {
		tr.suffix = make([]uint64, nb*k)
	}
	tr.suffix = tr.suffix[:nb*k]
	var acc [MaxWideWords]uint64
	for i := nb - 1; i >= 0; i-- {
		copy(tr.suffix[i*k:i*k+k], acc[:k])
		for j := 0; j < k; j++ {
			acc[j] |= tr.orAt[i*k+j]
		}
	}
	tr.lateAll = append(tr.lateAll[:0], acc[:k]...)
	e.stats.Steps += uint64(WordLanes * k)
	e.now = 0
	return tr, nil
}

// WideSample is one Tclk's view of a WideTrace, produced by Resample.
// CapturedW is indexed by tracked slot times K (the order of the
// tracked argument to StepWideTrace). The struct is caller-owned;
// Resample reuses its buffers, so a steady-state sweep allocates
// nothing here.
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

// Resample answers one clock period from the trace: the capture
// boundary splits the history at time ≤ tclk (captured side, matching
// the calendar queue's inclusive pop) versus time > tclk (late side).
// Captured blocks are the tracked nets' last pre-deadline values, lane
// energy is the nearest stored prefix snapshot plus a bounded charge
// replay (identical additions in identical order — bit-identical to
// StepWideChunk at the same tclk) plus leakage, and the late mask is the
// boundary's suffix OR. Cost is a binary search plus a bounded replay
// plus the tracked-net event walk, independent of the netlist size.
// tclk must not exceed the trace's capture horizon.
func (t *WideTrace) Resample(tclk float64, s *WideSample) error {
	if !(tclk > 0) { // negated to catch NaN
		return fmt.Errorf("sim: non-positive tclk %v", tclk)
	}
	if tclk > t.horizon {
		return fmt.Errorf("sim: tclk %v beyond trace capture horizon %v", tclk, t.horizon)
	}
	k := t.k
	// idx: the last boundary with times[idx] ≤ tclk, or -1.
	lo, hi := 0, len(t.times)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.times[mid] <= tclk {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	idx := lo - 1
	if idx >= 0 {
		snap := idx / widePrefixStride
		row := WordLanes * k
		s.EnergyFJ = append(s.EnergyFJ[:0], t.prefix[snap*row:(snap+1)*row]...)
		for i := t.evEnd[snap*widePrefixStride]; i < t.evEnd[idx]; i++ {
			ge := t.energy[i]
			blk := t.diffs[int(i)*k : int(i)*k+k]
			for j := 0; j < k; j++ {
				lb := j * WordLanes
				for d := blk[j]; d != 0; d &= d - 1 {
					s.EnergyFJ[lb+bits.TrailingZeros64(d)] += ge
				}
			}
		}
		s.LateW = append(s.LateW[:0], t.suffix[idx*k:(idx+1)*k]...)
	} else {
		s.EnergyFJ = append(s.EnergyFJ[:0], t.base...)
		s.LateW = append(s.LateW[:0], t.lateAll...)
	}
	leak := t.leakPower * tclk
	for i := range s.EnergyFJ {
		s.EnergyFJ[i] += leak
	}
	s.CapturedW = append(s.CapturedW[:0], t.start...)
	for i := range t.outs {
		o := &t.outs[i]
		if o.time > tclk {
			break // chronological: every later event is late too
		}
		copy(s.CapturedW[int(o.slot)*k:int(o.slot)*k+k], t.outWords[i*k:i*k+k])
	}
	return nil
}

// RetimeTrace re-times src's recorded wave at this engine's operating
// point without re-simulating, filling dst. It first re-derives every
// effective event's firing time under the engine's delay table —
// exactly the floats a fresh simulation computes, since a pushed
// event's time is always its parent's firing time plus the gate delay
// — and checks that the recorded order survives: non-decreasing
// overall, strictly increasing across distinct source timestamps
// (equal retimed times are only safe within one source timestamp,
// where the recorded order is already the seq order equal-time pops
// resolve to). If the order holds, the retimed wave is the fresh
// simulation's wave, event for event — same pushes in the same
// relative order, same squash pattern, same per-lane accumulation
// sequences — and dst is rebuilt from the log (boundaries, energy
// prefixes within horizon, suffix masks, out events, input-toggle base
// energy), bit-identical to a fresh StepWideTrace at this op. If any
// event pair would reorder, it reports false with dst unspecified and
// the caller must fall back to fresh simulation; RetimeStats counts
// both outcomes. The order check alone is an early-aborting O(events)
// pass, so a rejected retime costs almost nothing.
//
// dst aliases src's operating-point-independent arrays (event log,
// diffs, start blocks), so it is valid only while src is. dst is
// resample-only: its post-horizon boundaries are collapsed into one
// accumulated late mask (a Resample at tclk ≤ horizon never selects
// them individually), which makes retiming a deep-VOS point — where
// nearly the whole wave lands past the horizon — an almost pure
// order-check. The source must therefore be a fresh engine-recorded
// trace; chains hop fresh-anchor → point, not point → point.
func (e *WideEngine) RetimeTrace(src *WideTrace, horizon float64, dst *WideTrace) (bool, error) {
	if src.k != e.k {
		return false, fmt.Errorf("sim: retime across lane widths %d vs %d", src.k, e.k)
	}
	if src == dst {
		return false, fmt.Errorf("sim: retime source and destination must differ")
	}
	if !src.full {
		return false, fmt.Errorf("sim: retime source must be a fresh engine trace (retimed traces are resample-only)")
	}
	if !(horizon > 0) { // negated to catch NaN
		return false, fmt.Errorf("sim: non-positive trace horizon %v", horizon)
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
	// Pass 2: rebuild dst at this op. Op-independent structure aliases
	// src; op-dependent parts (times, energies, prefixes) are rebuilt
	// with the same accumulation order a fresh simulation uses.
	k := e.k
	dst.k = k
	dst.op = e.op
	dst.horizon = horizon
	dst.leakPower = e.leakPower
	dst.full = false
	dst.start = src.start
	dst.gates = src.gates
	dst.parent = src.parent
	dst.diffs = src.diffs
	dst.outWords = src.outWords
	dst.inTogIDs = src.inTogIDs
	dst.inTogDiffs = src.inTogDiffs
	// Base energy: replay the t = 0 toggle log against this op's
	// input-pin energies, in the recorded (applyInputs) order. The
	// engine's lane accumulator doubles as scratch — no simulation is
	// in flight during a retime.
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
	dst.base = append(dst.base[:0], lane...)
	if cap(dst.energy) < n {
		dst.energy = make([]float64, n)
	}
	dst.energy = dst.energy[:n]
	for i, g := range src.gates {
		dst.energy[i] = e.gateEnergy[g]
	}
	// Regroup boundaries by retimed time (a source boundary may split
	// when its events' retimed times differ; never merge — the order
	// check made cross-boundary times strictly increasing), attributing
	// energy and snapshotting prefixes within the horizon, with the
	// same boundary phase a fresh trace uses.
	dst.times = dst.times[:0]
	dst.evEnd = dst.evEnd[:0]
	dst.orAt = dst.orAt[:0]
	dst.prefix = dst.prefix[:0]
	var curOr [MaxWideWords]uint64
	curTime := 0.0
	open := false
	flush := func(end int32) {
		if len(dst.times)%widePrefixStride == 0 && curTime <= horizon {
			dst.prefix = append(dst.prefix, lane...)
		}
		dst.times = append(dst.times, curTime)
		dst.evEnd = append(dst.evEnd, end)
		dst.orAt = append(dst.orAt, curOr[:k]...)
		for j := 0; j < k; j++ {
			curOr[j] = 0
		}
	}
	i := 0
	for ; i < n; i++ {
		ti := t2[i]
		if ti > horizon {
			break // t2 is non-decreasing: everything from here is late
		}
		if !open || ti != curTime {
			if open {
				flush(int32(i))
			}
			curTime, open = ti, true
		}
		blk := src.diffs[i*k : i*k+k]
		ge := dst.energy[i]
		for j := 0; j < k; j++ {
			lb := j * WordLanes
			for d := blk[j]; d != 0; d &= d - 1 {
				lane[lb+bits.TrailingZeros64(d)] += ge
			}
		}
		for j := 0; j < k; j++ {
			curOr[j] |= blk[j]
		}
	}
	if open {
		flush(int32(i))
	}
	// Everything past the horizon collapses into one accumulated late
	// mask: no Resample ever selects a post-horizon boundary, so their
	// only observable contribution is this OR.
	var acc [MaxWideWords]uint64
	for ; i < n; i++ {
		blk := src.diffs[i*k : i*k+k]
		for j := 0; j < k; j++ {
			acc[j] |= blk[j]
		}
	}
	// Suffix late masks over the rebuilt boundaries, seeded with the
	// collapsed post-horizon mask.
	nb := len(dst.times)
	if cap(dst.suffix) < nb*k {
		dst.suffix = make([]uint64, nb*k)
	}
	dst.suffix = dst.suffix[:nb*k]
	for i := nb - 1; i >= 0; i-- {
		copy(dst.suffix[i*k:i*k+k], acc[:k])
		for j := 0; j < k; j++ {
			acc[j] |= dst.orAt[i*k+j]
		}
	}
	dst.lateAll = append(dst.lateAll[:0], acc[:k]...)
	// Out events re-stamped at their retimed event times; the recorded
	// order is preserved, so they stay chronological.
	dst.outs = dst.outs[:0]
	for _, o := range src.outs {
		dst.outs = append(dst.outs, wideOut{time: t2[o.ev], slot: o.slot, ev: o.ev})
	}
	e.retimeOK++
	return true, nil
}

// ResampleAt answers one (op, tclk) query from a trace recorded at a
// different operating point of the same netlist and lane width: it
// retimes src at the engine's op (order check included) and resamples
// the retimed wave at tclk. ok = false means the order check rejected
// the retime and the caller must fall back to fresh simulation. For
// repeated resampling at one op, call RetimeTrace once and Resample
// the result; ResampleAt retimes per call.
func (e *WideEngine) ResampleAt(src *WideTrace, tclk float64, s *WideSample) (bool, error) {
	if src.op == e.op {
		return true, src.Resample(tclk, s)
	}
	ok, err := e.RetimeTrace(src, src.horizon, &e.retimed)
	if err != nil || !ok {
		return ok, err
	}
	return true, e.retimed.Resample(tclk, s)
}

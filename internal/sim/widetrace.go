package sim

import (
	"fmt"
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

// reset empties the log for a new wave of k-word lane blocks.
func (t *WideTrace) reset(k int) {
	t.k = k
	t.start = t.start[:0]
	t.times = t.times[:0]
	t.evEnd = t.evEnd[:0]
	t.gates = t.gates[:0]
	t.parent = t.parent[:0]
	t.diffs = t.diffs[:0]
	t.outs = t.outs[:0]
	t.outWords = t.outWords[:0]
	t.inTogIDs = t.inTogIDs[:0]
	t.inTogDiffs = t.inTogDiffs[:0]
}

// add logs one effective event — its firing time, gate, causal parent
// and changed-lane block, and the new block when it drives tracked
// slot slot (≥ 0) — and returns its index, the parent of the events
// its processing pushes.
func (t *WideTrace) add(time float64, gi netlist.GateID, parent int32, diff []uint64, slot int32, block []uint64) int32 {
	ev := int32(len(t.gates))
	if n := len(t.times); n > 0 && t.times[n-1] == time {
		t.evEnd[n-1] = ev + 1
	} else {
		t.times = append(t.times, time)
		t.evEnd = append(t.evEnd, ev+1)
	}
	t.gates = append(t.gates, gi)
	t.parent = append(t.parent, parent)
	t.diffs = append(t.diffs, diff...)
	if slot >= 0 {
		t.outs = append(t.outs, wideOut{slot: slot, ev: ev})
		t.outWords = append(t.outWords, block...)
	}
	return ev
}

// EventTimes appends the trace's distinct event timestamps to buf and
// returns it. Exposed for tests and diagnostics (a clock placed exactly
// on an event timestamp captures that event, matching the queue's
// inclusive pop).
func (t *WideTrace) EventTimes(buf []float64) []float64 {
	return append(buf, t.times...)
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

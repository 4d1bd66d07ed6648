package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/cell"
	"repro/internal/fdsoi"
	"repro/internal/netlist"
)

// WordLanes is the pattern parallelism of one lane word: one uint64
// carries one bit per concurrently simulated pattern.
const WordLanes = netlist.BatchLanes

// MaxWideWords is the largest lane-block width of the wide engine: K
// words of WordLanes patterns each, so one event wave serves up to
// MaxWideWords×64 = 512 patterns.
const MaxWideWords = 8

// wideQueueFineness narrows the wide engine's calendar buckets relative
// to the scalar baseline, per lane word of the block. One K-word chunk
// merges K·64 pattern waves, so a scalar-width bucket collects ~K·64×
// the events and pays quicksorts where the scalar engine pays
// nearly-free small insertion sorts; splitting the same time span
// across more buckets restores the small-sort regime. Purely a
// performance knob: pop order is (time, seq) at any fineness.
const wideQueueFineness = 8

// wideRef is the wide engine's event payload: the firing gate, the
// arena slot holding its scheduled K-word output block, and the index
// of the effective event during whose processing the push happened
// (-1 for events seeded by the t = 0 input switch). The parent index
// is what makes a recorded wave re-timeable at another operating
// point: a pushed event's time is always parentTime + gateDelay, so a
// new delay table replays the identical float additions. The full
// event (qev[wideRef]) is 32 bytes.
type wideRef struct {
	gate   netlist.GateID
	slot   int32
	parent int32
}

// WideResult is the outcome of one K×64-lane two-vector chunk. It is
// owned by the engine and valid until the next StepWideChunk call.
// Lane L = word j, bit b addresses pattern j·64+b of the chunk.
type WideResult struct {
	// CapturedW holds the per-net lane blocks sampled at the capture
	// instant: K consecutive words per net, CapturedW[id·K+j] bit b =
	// net id's value under pattern j·64+b.
	CapturedW []uint64
	// EnergyFJ is the per-lane energy of the chunk (length K·64):
	// lane L's switching before capture plus leakage over Tclk,
	// bit-identical to the EnergyFJ a scalar StepDense of pattern L
	// reports.
	EnergyFJ []float64
	// LateW flags lanes with at least one post-capture transition,
	// one word per lane word (length K).
	LateW []uint64
}

// WideEngine is the K×64-lane bit-sliced variant of Engine: net state
// is a flat block of K consecutive uint64 words per net
// (valueW[id·K+j] bit b = net id's value under pattern j·64+b), one
// event wave serves K·64 patterns, and one event fires per
// any-lane-any-word change. It shares the compiled tables (delays,
// energies, truth tables, CSR fanouts) with the scalar engine and
// evaluates gates with cell.Kind.EvalWord. Scheduled output blocks live
// in a per-chunk arena so the calendar queue's payload stays a fixed 32
// bytes at every K.
//
// Per lane the schedule is exactly the scalar schedule: gate delays are
// data-independent at a fixed operating point, so lane L's transition
// times, captured values and energy-accumulation order do not depend on
// which other lanes share its event carriers — lane L of a wide chunk
// is bit-identical to a scalar StepDense of pattern L, at every K.
// Re-evaluation is lazy per word: a touch only re-evaluates the words
// whose input words actually changed (the firing event's changed-word
// mask), which keeps the per-event cost proportional to activity rather
// than to K.
//
// The engine only implements the two-vector protocol: each lane's
// experiment starts from its own settled predecessor state, which is a
// pure (zero-delay) function of the predecessor vector and therefore
// batch-computable. The streaming protocol is temporally serial and
// stays on the scalar engine. Not safe for concurrent use.
type WideEngine struct {
	nl *netlist.Netlist
	op fdsoi.OperatingPoint

	*tables

	k          int
	valueW     []uint64 // NumNets·K current lane blocks
	scheduledW []uint64 // NumGates·K last scheduled output blocks
	arena      []uint64 // scheduled blocks referenced by in-flight events
	queue      calQueue[wideRef]
	seq        uint64
	now        float64
	// curParent is the index of the effective event being processed,
	// recorded into pushes as their retime parent (-1 while the t = 0
	// input switch seeds the wave).
	curParent int32

	laneEnergy []float64 // K·64

	res WideResult

	// trace and slotOf back StepWideTrace (widetrace.go); t2 and
	// retimed back RetimeTrace/ResampleAt.
	trace   WideTrace
	slotOf  []int32
	t2      []float64
	retimed WideTrace

	stats                    Stats
	retimeOK, retimeFallback uint64
}

// NewWide builds a K-word wide engine for nl at operating point op.
// k must be in [1, MaxWideWords]; k = 1 is the plain 64-lane geometry
// (one word per net).
func NewWide(nl *netlist.Netlist, lib *cell.Library, proc fdsoi.Params, op fdsoi.OperatingPoint, k int) (*WideEngine, error) {
	if k < 1 || k > MaxWideWords {
		return nil, fmt.Errorf("sim: wide block of %d words outside [1, %d]", k, MaxWideWords)
	}
	e := &WideEngine{
		nl:         nl,
		op:         op,
		tables:     compileTables(nl, lib, proc, op),
		k:          k,
		valueW:     make([]uint64, nl.NumNets()*k),
		scheduledW: make([]uint64, nl.NumGates()*k),
		laneEnergy: make([]float64, WordLanes*k),
	}
	e.queue.init(e.minDelay, e.maxDelay, wideQueueFineness*float64(k))
	return e, nil
}

// K returns the engine's lane-block width in words.
func (e *WideEngine) K() int { return e.k }

// Stats returns the accumulated statistics. Counts are per-lane: one
// fired event contributes one transition per changed lane, so a
// chunk-aligned sweep's totals equal the scalar engine's. Every chunk
// books K·64 steps and lane-leakage terms, so the inert tail lanes of a
// ragged final chunk are included in Steps and LeakageEnergy (results
// ignore those lanes; the diagnostics deliberately count what was
// simulated, which is always full blocks).
func (e *WideEngine) Stats() Stats { return e.stats }

// ResetStats zeroes the accumulated statistics.
func (e *WideEngine) ResetStats() { e.stats = Stats{} }

// RetimeStats reports the cross-voltage reuse outcomes since the last
// reset: ok counts order-stable retimes served from a recorded trace,
// fallbacks counts order-check rejections (the caller re-simulated).
func (e *WideEngine) RetimeStats() (ok, fallbacks uint64) {
	return e.retimeOK, e.retimeFallback
}

// touch re-evaluates the changed words of a gate's lane block after an
// input event and schedules an output event when any re-evaluated
// word's target differs from the last scheduled block. words is the
// changed-word mask of the firing event (bit j = word j changed);
// unchanged words cannot have moved — every input-word change fires a
// touch carrying that word — so skipping them is exact, not a
// heuristic.
func (e *WideEngine) touch(gi netlist.GateID, words uint64) {
	k := e.k
	a := int(e.in0[gi]) * k
	b := int(e.in1[gi]) * k
	c := int(e.in2[gi]) * k
	s := int(gi) * k
	kind := e.kinds[gi]
	changed := false
	for m := words; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		w := kind.EvalWord(e.valueW[a+j], e.valueW[b+j], e.valueW[c+j])
		if w != e.scheduledW[s+j] {
			e.scheduledW[s+j] = w
			changed = true
		}
	}
	if !changed {
		return
	}
	slot := int32(len(e.arena) / k)
	e.arena = append(e.arena, e.scheduledW[s:s+k]...)
	e.seq++
	e.queue.push(qev[wideRef]{
		time:    e.now + e.gateDelay[gi],
		seq:     e.seq,
		payload: wideRef{gate: gi, slot: slot, parent: e.curParent},
	})
}

// settle instantly settles every lane on its predecessor block and
// seeds the scheduled blocks, the shared preamble of StepWideChunk and
// StepWideTrace.
func (e *WideEngine) settle(prev []uint64) error {
	k := e.k
	for _, id := range e.inputNets {
		copy(e.valueW[int(id)*k:int(id)*k+k], prev[int(id)*k:int(id)*k+k])
	}
	if err := e.nl.EvaluateWide(e.valueW, k); err != nil {
		return err
	}
	for gi := range e.gateOut {
		copy(e.scheduledW[gi*k:gi*k+k], e.valueW[int(e.gateOut[gi])*k:int(e.gateOut[gi])*k+k])
	}
	e.queue.clear()
	e.arena = e.arena[:0]
	e.now = 0
	e.curParent = -1
	for i := range e.laneEnergy {
		e.laneEnergy[i] = 0
	}
	return nil
}

// StepWideChunk runs K·64 independent two-vector timing experiments
// through one event wave: lane L settles instantly on prev's lane-L
// input bits, switches to cur's at t = 0, is captured at t = tclk, and
// then settles to quiescence. prev and cur are flat per-net lane-block
// images (K consecutive words per net, indexed id·K+j). A ragged final
// chunk leaves its unused lanes equal in both images — they launch no
// events and are ignored in the result.
//
// The returned WideResult is owned by the engine and valid until the
// next call; a steady-state sweep allocates nothing here.
func (e *WideEngine) StepWideChunk(prev, cur []uint64, tclk float64) (*WideResult, error) {
	if !(tclk > 0) { // negated to catch NaN, which popIfBefore would misread
		return nil, fmt.Errorf("sim: non-positive tclk %v", tclk)
	}
	k := e.k
	if len(prev) != len(e.valueW) || len(cur) != len(e.valueW) {
		return nil, fmt.Errorf("sim: lane images have %d/%d entries, want %d",
			len(prev), len(cur), len(e.valueW))
	}
	if err := e.settle(prev); err != nil {
		return nil, err
	}
	res := &e.res
	if cap(res.LateW) < k {
		res.LateW = make([]uint64, k)
	}
	res.LateW = res.LateW[:k]
	for j := range res.LateW {
		res.LateW[j] = 0
	}
	// Switch the inputs to the current vectors and seed the wave; nets
	// are visited in the scalar applyInputs order and words ascending,
	// so each lane's input-energy accumulation order matches the scalar
	// path exactly.
	for _, id := range e.inputNets {
		base := int(id) * k
		var words uint64
		ie := e.inputEnergy[id]
		for j := 0; j < k; j++ {
			nv := cur[base+j]
			d := e.valueW[base+j] ^ nv
			if d == 0 {
				continue
			}
			e.valueW[base+j] = nv
			words |= 1 << uint(j)
			lb := j * WordLanes
			for ; d != 0; d &= d - 1 {
				e.laneEnergy[lb+bits.TrailingZeros64(d)] += ie
			}
		}
		if words == 0 {
			continue
		}
		for _, fo := range e.foList[e.foOff[id]:e.foOff[id+1]] {
			e.touch(fo, words)
		}
	}
	// Phase 1: events up to the capture edge.
	for {
		ev, ok := e.queue.popIfBefore(tclk)
		if !ok {
			break
		}
		e.now = ev.time
		gi := ev.payload.gate
		out := int(e.gateOut[gi]) * k
		pay := e.arena[int(ev.payload.slot)*k : int(ev.payload.slot)*k+k]
		var words uint64
		ge := e.gateEnergy[gi]
		for j := 0; j < k; j++ {
			d := e.valueW[out+j] ^ pay[j]
			if d == 0 {
				continue
			}
			e.valueW[out+j] = pay[j]
			words |= 1 << uint(j)
			e.stats.Transitions += uint64(bits.OnesCount64(d))
			lb := j * WordLanes
			for ; d != 0; d &= d - 1 {
				e.laneEnergy[lb+bits.TrailingZeros64(d)] += ge
			}
		}
		if words == 0 {
			continue
		}
		for _, fo := range e.foList[e.foOff[out/k]:e.foOff[out/k+1]] {
			e.touch(fo, words)
		}
	}
	res.CapturedW = append(res.CapturedW[:0], e.valueW...)
	// Phase 2: post-capture settling; transitions here are late.
	for {
		ev, ok := e.queue.popMin()
		if !ok {
			break
		}
		e.now = ev.time
		gi := ev.payload.gate
		out := int(e.gateOut[gi]) * k
		pay := e.arena[int(ev.payload.slot)*k : int(ev.payload.slot)*k+k]
		var words uint64
		for j := 0; j < k; j++ {
			d := e.valueW[out+j] ^ pay[j]
			if d == 0 {
				continue
			}
			e.valueW[out+j] = pay[j]
			words |= 1 << uint(j)
			n := uint64(bits.OnesCount64(d))
			e.stats.Transitions += n
			e.stats.LateTransitions += n
			res.LateW[j] |= d
		}
		if words == 0 {
			continue
		}
		for _, fo := range e.foList[e.foOff[out/k]:e.foOff[out/k+1]] {
			e.touch(fo, words)
		}
	}
	leak := e.leakPower * tclk
	res.EnergyFJ = res.EnergyFJ[:0]
	var dyn float64
	for _, le := range e.laneEnergy {
		res.EnergyFJ = append(res.EnergyFJ, le+leak)
		dyn += le
	}
	e.stats.DynamicEnergy += dyn
	e.stats.LeakageEnergy += leak * float64(WordLanes*k)
	e.stats.Steps += uint64(WordLanes * k)
	e.now = 0
	return res, nil
}

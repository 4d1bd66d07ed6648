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

	// slotOf maps a tracked net to its slot during a walk (-1 = not
	// tracked); trace is StepWideTrace's retime log; t2, held and from
	// are RetimeTrace's scratch (widetrace.go).
	slotOf []int32
	trace  WideTrace
	t2     []float64
	held   []uint64
	from   []int32

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
// seeds the scheduled blocks.
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

// WideSample is one clock period's capture of a StepWide,
// StepWideTrace or RetimeTrace walk. Per lane it holds exactly what a
// scalar StepDense of that lane's pattern at the clock reports for the
// tracked nets. The struct is caller-owned; the walks reuse its
// buffers, so a steady-state sweep allocates nothing here.
type WideSample struct {
	// CapturedW holds the tracked nets' lane blocks at the capture
	// instant, in the order of the walk's tracked argument: bit b of
	// CapturedW[s·K+j] is tracked net s's value under pattern j·64+b.
	CapturedW []uint64
	// EnergyFJ is the K·64 per-lane energy at this clock: the lane's
	// switching before capture plus leakage over the clock.
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
// lane the scalar engine makes.
func (s *WideSample) setEnergy(lane []float64, leak float64) {
	s.EnergyFJ = s.EnergyFJ[:0]
	for _, le := range lane {
		s.EnergyFJ = append(s.EnergyFJ, le+leak)
	}
}

// StepWide runs K·64 independent two-vector timing experiments through
// one event wave and captures every clock of the operating point in the
// same walk. Lane L settles instantly on prev's lane-L input bits,
// switches to cur's at t = 0 and settles to quiescence; samples[c]
// receives the tracked nets' blocks after every event at or before
// clocks[c] (the calendar queue's pop is inclusive, so an event exactly
// at a clock is captured), the per-lane energy switched by then plus
// leakage over clocks[c], and the lanes with a transition after it.
// Lane L of every sample is bit-identical to a scalar StepDense of
// pattern L at that clock, at every K.
//
// prev and cur are flat per-net lane-block images (K consecutive words
// per net, indexed id·K+j). A ragged final chunk leaves its unused
// lanes equal in both images: they launch no events. clocks must be
// positive and ascending, one sample each; tracked nets must be
// distinct. Per-lane energy attribution stops once the last clock is
// captured, while the wave runs on for the late masks.
func (e *WideEngine) StepWide(prev, cur []uint64, tracked []netlist.NetID, clocks []float64, samples []WideSample) error {
	return e.walk(prev, cur, tracked, clocks, samples, nil)
}

// StepWideTrace is StepWide that also records the wave's retime log,
// from which RetimeTrace serves neighboring operating points; with no
// clocks it records only the log. The returned trace is owned by the
// engine and valid until its next StepWideTrace call.
func (e *WideEngine) StepWideTrace(prev, cur []uint64, tracked []netlist.NetID, clocks []float64, samples []WideSample) (*WideTrace, error) {
	if err := e.walk(prev, cur, tracked, clocks, samples, &e.trace); err != nil {
		return nil, err
	}
	return &e.trace, nil
}

// walk is the one fresh event loop behind StepWide and StepWideTrace;
// it records the retime log into tr unless tr is nil. The late masks
// are built during the walk: each effective event ORs its changed
// lanes into the mask of the last clock captured before it, and one
// suffix OR at the end turns those segments into "any transition after
// this clock".
func (e *WideEngine) walk(prev, cur []uint64, tracked []netlist.NetID, clocks []float64, samples []WideSample, tr *WideTrace) error {
	if err := checkClocks(clocks, samples); err != nil {
		return err
	}
	k := e.k
	if len(prev) != len(e.valueW) || len(cur) != len(e.valueW) {
		return fmt.Errorf("sim: lane images have %d/%d entries, want %d",
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
			return fmt.Errorf("sim: tracked net %d outside netlist", id)
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
			return fmt.Errorf("sim: net %d tracked twice", id)
		}
		e.slotOf[id] = int32(s)
	}
	if err := e.settle(prev); err != nil {
		return err
	}
	if tr != nil {
		tr.reset(k)
	}
	// Switch the inputs to the current vectors and seed the wave; nets
	// are visited in the scalar applyInputs order and words ascending,
	// so each lane's input-energy accumulation order matches the scalar
	// engine's, and a retime replaying the logged toggle set against
	// another op's pin energies matches that op's.
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
		if tr != nil {
			tr.inTogIDs = append(tr.inTogIDs, id)
			tr.inTogDiffs = append(tr.inTogDiffs, dblk[:k]...)
		}
		for _, fo := range e.foList[e.foOff[id]:e.foOff[id+1]] {
			e.touch(fo, words)
		}
	}
	if tr != nil {
		for _, id := range tracked {
			tr.start = append(tr.start, e.valueW[int(id)*k:int(id)*k+k]...)
		}
	}
	// capture records clock c from the live state (every event at or
	// before it has fired, none after it has) and returns its late
	// segment, zeroed.
	capture := func(c int) []uint64 {
		s := &samples[c]
		s.CapturedW = s.CapturedW[:0]
		for _, id := range tracked {
			s.CapturedW = append(s.CapturedW, e.valueW[int(id)*k:int(id)*k+k]...)
		}
		s.setEnergy(e.laneEnergy, e.leakPower*clocks[c])
		var zero [MaxWideWords]uint64
		s.LateW = append(s.LateW[:0], zero[:k]...)
		return s.LateW
	}
	// Run the wave dry in (time, seq) order, capturing each clock just
	// before the first event past it. Events before the first clock OR
	// into a segment nobody reads. Attribution (per-lane energy adds)
	// stops after the last clock; the wave and the log never do.
	var early [MaxWideWords]uint64
	late := early[:k]
	ci := 0
	for {
		ev, ok := e.queue.popMin()
		if !ok {
			break
		}
		for ci < len(clocks) && ev.time > clocks[ci] {
			late = capture(ci)
			ci++
		}
		e.now = ev.time
		gi := ev.payload.gate
		outNet := int(e.gateOut[gi])
		out := outNet * k
		pay := e.arena[int(ev.payload.slot)*k : int(ev.payload.slot)*k+k]
		attribute := ci < len(clocks)
		ge := e.gateEnergy[gi]
		var words uint64
		for j := 0; j < k; j++ {
			d := e.valueW[out+j] ^ pay[j]
			dblk[j] = d
			if d == 0 {
				continue
			}
			e.valueW[out+j] = pay[j]
			words |= 1 << uint(j)
			late[j] |= d
			if attribute {
				lb := j * WordLanes
				for ; d != 0; d &= d - 1 {
					e.laneEnergy[lb+bits.TrailingZeros64(d)] += ge
				}
			}
		}
		if words == 0 {
			continue // squashed: inert at every operating point
		}
		if tr != nil {
			e.curParent = tr.add(ev.time, gi, ev.payload.parent, dblk[:k], e.slotOf[outNet], pay)
		}
		for _, fo := range e.foList[e.foOff[outNet]:e.foOff[outNet+1]] {
			e.touch(fo, words)
		}
	}
	for ; ci < len(clocks); ci++ {
		capture(ci)
	}
	for c := len(samples) - 2; c >= 0; c-- {
		for j, w := range samples[c+1].LateW {
			samples[c].LateW[j] |= w
		}
	}
	e.curParent = -1
	e.now = 0
	return nil
}

// Package charz orchestrates the paper's characterization flow (Fig. 4):
// generate and synthesize an operator, derive its Table III operating
// triads from the synthesis timing report, drive the timing simulator with
// the stimulus set at every triad, and collect error statistics and energy
// per operation. Its outputs are the raw material of Fig. 5, Fig. 8 and
// Table IV.
package charz

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/fdsoi"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/patterns"
	"repro/internal/rcsim"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/triad"
)

// Backend selects the timing engine that plays the SPICE role.
type Backend uint8

// Available backends: the event-driven gate-level engine (default, fast),
// the switch-level RC engine (slower, models partial swings and inertial
// glitch filtering — used to cross-check the gate-level results), and the
// calibrated statistical model backend (internal/model), which replays a
// trained P(C|Cthmax) table instead of simulating and is orders of
// magnitude cheaper per pattern. Model-backed points are executed by the
// engine, not by this package's steppers — RunTriad rejects them.
const (
	BackendGate Backend = iota
	BackendRC
	BackendModel
)

// String names the backend.
func (b Backend) String() string {
	switch b {
	case BackendGate:
		return "gate"
	case BackendRC:
		return "rc"
	case BackendModel:
		return "model"
	default:
		return fmt.Sprintf("Backend(%d)", uint8(b))
	}
}

// Config parameterizes one characterization run.
type Config struct {
	// Arch and Width select the operator (8/16-bit RCA/BKA in the paper).
	Arch  synth.Arch
	Width int
	// Patterns is the stimulus count per triad (paper: 20 000).
	Patterns int
	// Seed drives pattern generation and per-gate mismatch sampling.
	Seed uint64
	// PropagateP is the per-bit carry-propagate probability of the
	// stimulus (0.5 = the paper's uniform profile).
	PropagateP float64
	// MismatchSigma is the per-gate threshold variability (V); 0 disables
	// Monte-Carlo variation. Defaults to the process SigmaVt when
	// negative.
	MismatchSigma float64
	// Proc and Lib default to fdsoi.Default() / cell.Default28nmLVT().
	// The defaults are one shared copy each, read-only: every Config
	// canonicalized without them points at the same values, and the
	// library is frozen (Add panics).
	Proc *fdsoi.Params
	Lib  *cell.Library
	// Triads overrides the sweep set; nil derives the paper's 43 triads
	// from the synthesis report.
	Triads []triad.Triad
	// Backend selects the timing engine (default: gate-level).
	Backend Backend
	// Streaming, when true, applies vectors every Tclk without letting
	// the circuit settle between launches (sim.Engine.StreamStepDense): the
	// free-running datapath protocol, versus the default two-vector
	// test. Gate backend only.
	Streaming bool
}

// defaultProc and defaultLib are what setDefaults fills in for a nil
// Proc or Lib. Sharing them lets the library's fingerprint memo serve
// every cache key instead of rehashing a fresh library per call.
var (
	defaultProc = fdsoi.Default()
	defaultLib  = cell.Default28nmLVT().Freeze()
)

func (c *Config) setDefaults() error {
	if c.Width < 1 || c.Width > 32 {
		return fmt.Errorf("charz: width %d outside [1, 32]", c.Width)
	}
	if c.Patterns < 1 {
		return fmt.Errorf("charz: need at least one pattern")
	}
	if c.PropagateP == 0 {
		c.PropagateP = 0.5
	}
	if !(c.PropagateP >= 0 && c.PropagateP <= 1) {
		return fmt.Errorf("charz: propagate probability %v", c.PropagateP)
	}
	if c.Proc == nil {
		c.Proc = &defaultProc
	}
	if c.Lib == nil {
		c.Lib = defaultLib
	}
	if c.MismatchSigma < 0 {
		c.MismatchSigma = c.Proc.SigmaVt
	}
	if c.Backend == BackendModel && c.Streaming {
		return fmt.Errorf("charz: streaming capture has no model-backend equivalent")
	}
	return nil
}

// Canonical returns a copy of the Config with all defaults applied — the
// form under which two Configs are behaviorally identical if and only if
// their canonical fields (and the contents of Proc/Lib) are equal. Cache
// keys must be derived from canonical Configs so that an explicit
// "Patterns: 2000, PropagateP: 0.5" and the equivalent zero-value Config
// hash identically.
func (c Config) Canonical() (Config, error) {
	if err := (&c).setDefaults(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// TriadResult is the per-triad outcome of a sweep.
type TriadResult struct {
	Triad triad.Triad
	// Acc accumulates captured-vs-exact statistics over the full output
	// (sum plus carry-out: width+1 bits).
	Acc *metrics.ErrorAccumulator
	// EnergyPerOpFJ is the mean per-operation energy (switching before
	// capture + leakage over Tclk).
	EnergyPerOpFJ float64
	// LateFraction is the fraction of operations with at least one event
	// after the capture edge.
	LateFraction float64
	// Efficiency is the energy saving relative to the nominal triad,
	// filled by Run.
	Efficiency float64
	// Fidelity is set only on model-backend points: how faithfully the
	// trained table reproduced the gate-level oracle at this triad.
	Fidelity *core.Fidelity `json:",omitempty"`
}

// BER returns the triad's bit error rate.
func (r *TriadResult) BER() float64 { return r.Acc.BER() }

// Result is a full characterization of one operator.
type Result struct {
	Config  Config
	Netlist *netlist.Netlist
	Report  *synth.Report
	Triads  []TriadResult
	// NominalEnergyFJ is the per-op energy of the nominal (first) triad,
	// the baseline of all efficiency numbers.
	NominalEnergyFJ float64
}

// BenchName formats the operator the way the paper does ("8-bit RCA").
func (c Config) BenchName() string {
	return fmt.Sprintf("%d-bit %s", c.Width, c.Arch)
}

// Prepared is a synthesized operator ready for point simulation: the
// netlist, its synthesis report and the fully-defaulted Config that built
// them. Preparation is the expensive, triad-independent prefix of the
// Fig. 4 flow (generate + synthesize); the per-triad sweep then reuses it
// for every operating point.
type Prepared struct {
	Config  Config
	Netlist *netlist.Netlist
	Report  *synth.Report

	// The stimulus stream, its zero-delay reference and the wide path's
	// lane images are identical for every triad of a sweep ("same set of
	// input patterns" per the paper), so they are built once per Prepared
	// and shared read-only by the concurrent point simulations.
	stimOnce sync.Once
	stim     *stimulus
	stimErr  error
}

// stimulus is a sweep's triad-independent input side: the operand pairs,
// their zero-delay reference words and lanes, and the wide path's
// per-chunk lane images.
type stimulus struct {
	as, bs []uint64
	// want holds one reference word per pattern: sum LSB-first, then
	// carry-out (the packing of outNets).
	want []uint64
	// wantLanes holds the same references bit-sliced, len(outNets) lane
	// words per 64-pattern chunk: bit k of wantLanes[c·len(outNets)+i] is
	// output bit i of pattern c·64+k, with lanes past a ragged chunk's
	// pattern count zero. The error folds diff captured lanes against
	// them directly.
	wantLanes []uint64
	// inputs lists the netlist's input nets in port order. prev and cur
	// are indexed by 64-pattern chunk (pattern base / sim.WordLanes) and
	// stored compact: entry j of a chunk image is input net inputs[j]'s
	// lane word (scatterWideImage expands K consecutive chunks into a
	// full lane-block image). Bit k of cur is the net's value under
	// pattern base+k, and prev carries each lane's predecessor pattern:
	// lane 0's is the previous chunk's last pattern (or the all-zero reset
	// state for the first chunk), so the chunked lane sweep replays
	// exactly the scalar protocol's settled-state chaining. A full per-net
	// image per chunk would make a large-Patterns sweep's resident set
	// balloon.
	inputs    []netlist.NetID
	prev, cur [][]uint64
}

// stimulusSet lazily builds the sweep's stimulus.
func (p *Prepared) stimulusSet() (*stimulus, error) {
	p.stimOnce.Do(func() {
		p.stim, p.stimErr = buildStimulus(p.Netlist, p.Config, p.outNets())
	})
	return p.stim, p.stimErr
}

// buildStimulus draws the sweep's operand pairs and builds their lane
// images and reference words one 64-pattern chunk at a time. One 64×64
// bit transpose per operand turns the chunk's pattern-indexed words into
// bit-indexed lane words; those feed one bit-sliced EvaluateBatch in
// place, whose output lanes are kept as the reference lanes, and one
// more transpose turns them into per-pattern reference words. Computing
// the reference through the netlist rather than host arithmetic keeps it
// honest for any operator wired to the adder ports. Ragged chunks leave
// lanes ≥ n zero in both images (inert: no events, leakage-only energy,
// ignored by the folds) and in the reference lanes.
func buildStimulus(nl *netlist.Netlist, cfg Config, outNets []netlist.NetID) (*stimulus, error) {
	pa, ok := nl.InputPort(synth.PortA)
	if !ok {
		return nil, fmt.Errorf("charz: netlist %s lacks input port %q", nl.Name, synth.PortA)
	}
	pb, ok := nl.InputPort(synth.PortB)
	if !ok {
		return nil, fmt.Errorf("charz: netlist %s lacks input port %q", nl.Name, synth.PortB)
	}
	for _, name := range []string{synth.PortSum, synth.PortCout} {
		if _, ok := nl.OutputPort(name); !ok {
			return nil, fmt.Errorf("charz: netlist %s lacks output port %q", nl.Name, name)
		}
	}
	gen, err := patterns.NewPropagateProfile(cfg.Width, cfg.PropagateP, cfg.Seed)
	if err != nil {
		return nil, err
	}
	no, chunks := len(outNets), (cfg.Patterns+sim.WordLanes-1)/sim.WordLanes
	s := &stimulus{
		as:        make([]uint64, cfg.Patterns),
		bs:        make([]uint64, cfg.Patterns),
		want:      make([]uint64, cfg.Patterns),
		wantLanes: make([]uint64, 0, no*chunks),
	}
	for _, port := range nl.Inputs {
		s.inputs = append(s.inputs, port.Bits...)
	}
	ni := len(s.inputs)
	imgs := make([]uint64, 2*ni*chunks) // every chunk's prev then cur image
	s.prev, s.cur = make([][]uint64, 0, chunks), make([][]uint64, 0, chunks)
	lanes := make([]uint64, nl.NumNets())
	last := make([]uint64, ni) // per input: the previous chunk's lane-63 value
	for base := 0; base < cfg.Patterns; base += sim.WordLanes {
		n := min(cfg.Patterns-base, sim.WordLanes)
		var ta, tb, tw [64]uint64
		for k := 0; k < n; k++ {
			ta[k], tb[k] = gen.Next()
		}
		copy(s.as[base:], ta[:n])
		copy(s.bs[base:], tb[:n])
		metrics.Transpose64(&ta) // ta[i]: bit i of every pattern in the chunk
		metrics.Transpose64(&tb)
		for i, id := range pa.Bits {
			lanes[id] = ta[i]
		}
		for i, id := range pb.Bits {
			lanes[id] = tb[i]
		}
		if err := nl.EvaluateBatch(lanes); err != nil {
			return nil, err
		}
		lm := laneMask(n)
		for i, id := range outNets {
			tw[i] = lanes[id] & lm
		}
		s.wantLanes = append(s.wantLanes, tw[:no]...)
		metrics.Transpose64(&tw) // tw[k]: pattern base+k's output word
		copy(s.want[base:], tw[:n])
		prev, cur := imgs[:ni:ni], imgs[ni:2*ni:2*ni]
		imgs = imgs[2*ni:]
		for j, id := range s.inputs {
			cw := lanes[id]
			cur[j] = cw
			// Lane k's predecessor is lane k-1's current vector; lane 0
			// chains from the previous chunk.
			prev[j] = (cw<<1 | last[j]) & lm
			last[j] = cw >> 63 // consumed only after full chunks
		}
		s.prev = append(s.prev, prev)
		s.cur = append(s.cur, cur)
	}
	return s, nil
}

// Prepare runs the triad-independent half of the flow: apply defaults,
// generate the operator with per-gate mismatch, synthesize it. The result
// is deterministic in the Config (same seed → same netlist and report).
func Prepare(cfg Config) (*Prepared, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	var mm *fdsoi.MismatchSampler
	if cfg.MismatchSigma > 0 {
		mm = fdsoi.NewMismatchSampler(cfg.MismatchSigma, cfg.Seed^0x715317)
	}
	nl, err := synth.NewAdder(cfg.Arch, synth.AdderConfig{Width: cfg.Width, Mismatch: mm})
	if err != nil {
		return nil, err
	}
	rep, err := synth.Synthesize(nl, cfg.Lib, *cfg.Proc, 2000, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &Prepared{Config: cfg, Netlist: nl, Report: rep}, nil
}

// TriadSet returns the operating points this configuration sweeps: the
// Config's explicit override if set, otherwise the paper's Table III
// triads derived from the synthesis timing report.
func (p *Prepared) TriadSet() []triad.Triad {
	if p.Config.Triads != nil {
		return p.Config.Triads
	}
	ratios := triad.PaperClockRatios(p.Config.Arch.String(), p.Config.Width)
	return triad.Set(triad.DefaultSweep(ratios.Clocks(p.Report.CriticalPath)))
}

// RunTriad simulates one operating point against the prepared operator.
func (p *Prepared) RunTriad(tr triad.Triad) (*TriadResult, error) {
	return p.sweepTriad(tr)
}

// Groupable reports whether this configuration's sweeps run on the
// K×64-lane wide engine and can therefore share one timed simulation per
// electrical (Vdd, Vbb) operating point: true for the gate backend's
// two-vector protocol, whose event schedules are data-independent and
// do not depend on Tclk. Streaming capture (temporally serial) and the
// RC backend (per-pattern analog state) step a scalar engine per
// pattern and per triad.
func (p *Prepared) Groupable() bool {
	return p.Config.Backend == BackendGate && !p.Config.Streaming && !forceScalarReference
}

// forceScalarReference sends Groupable configurations down the scalar
// reference loop; the cross-check tests flip it to prove the wide path
// changes nothing but speed.
var forceScalarReference bool

// RunGroup simulates a set of triads forming one order-stable
// super-group: the triads may span multiple electrical operating
// points (typically one body-bias family across the Vdd ladder). Each
// K×64-pattern chunk is simulated once per body-bias family
// (sim.WideEngine, K picked from the sweep's pattern count) and
// re-timed across the family's other points with the order-checked
// cross-voltage retime, falling back to fresh simulation at any point
// whose event order is not preserved; each walk, fresh or retimed,
// captures every clock its point's triads use. Every returned
// TriadResult is bit-identical to an independent RunTriad of the same
// triad: the captures reproduce StepWideChunk exactly, and both paths
// fold each chunk through the same per-64-pattern-block accumulation
// (triadFold.foldWide). Configurations that are not Groupable fall back
// to per-triad simulation; results are positionally aligned with trs.
func (p *Prepared) RunGroup(trs []triad.Triad) ([]*TriadResult, error) {
	if len(trs) == 0 {
		return nil, nil
	}
	for _, tr := range trs {
		if err := tr.Validate(); err != nil {
			return nil, err
		}
	}
	if p.Groupable() && len(trs) > 1 {
		return p.sweepSuperGroup(trs)
	}
	out := make([]*TriadResult, len(trs))
	for i, tr := range trs {
		res, err := p.sweepTriad(tr)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// wideK picks the sweep's lane-block width: the largest power-of-two
// K ≤ sim.MaxWideWords whose K 64-lane words the pattern count can
// actually fill. Small sweeps stay narrow (no point carrying idle
// words through every event), large ones ride 512 patterns per wave.
func (p *Prepared) wideK() int {
	chunks := (p.Config.Patterns + sim.WordLanes - 1) / sim.WordLanes
	k := 1
	for k*2 <= sim.MaxWideWords && k*2 <= chunks {
		k *= 2
	}
	return k
}

// scatterWideImage expands k compact per-input-net lane images
// (consecutive 64-pattern chunks, starting at chunk0) into the flat
// K-word lane-block image the wide engine consumes. Chunks past the
// end of the sweep zero-fill their word — callers zero-fill prev and
// cur alike, so the trailing words are inert.
func scatterWideImage(full []uint64, inputs []netlist.NetID, k int, imgs [][]uint64, chunk0 int) {
	for j := 0; j < k; j++ {
		if ci := chunk0 + j; ci < len(imgs) {
			img := imgs[ci]
			for i, id := range inputs {
				full[int(id)*k+j] = img[i]
			}
		} else {
			for _, id := range inputs {
				full[int(id)*k+j] = 0
			}
		}
	}
}

// sweepSuperGroup is the grouped counterpart of sweepTriad's wide path
// at super-group scale: per K×64-pattern chunk, one fresh wide trace
// per body-bias family plus one order-checked retime per further
// electrical point, each walk capturing its point's distinct clocks.
// Points are visited in descending-Vdd order within each family and
// every retime hops from the family's fresh anchor trace. Each triad
// folds its clock's capture; triads sharing a point and a clock share
// the capture. Scratch lives for one call: an engine per electrical
// point, and one image pair and one sample set shared by every point
// and chunk (a point's captures are folded before the next point
// walks), so the chunk loop allocates nothing once the trace buffers
// have grown to steady state.
func (p *Prepared) sweepSuperGroup(trs []triad.Triad) ([]*TriadResult, error) {
	nl, cfg := p.Netlist, p.Config
	st, err := p.stimulusSet()
	if err != nil {
		return nil, err
	}
	k := p.wideK()
	outNets := p.outNets()
	folds := make([]triadFold, len(trs))
	for i := range folds {
		folds[i] = newTriadFold(len(outNets))
	}
	// Partition the group by electrical operating point, each point
	// carrying its distinct clocks ascending and, per clock, its triads
	// (in set order — accumulation into a triad's own counters is
	// order-sensitive only per triad). Points are planned per body-bias
	// family in descending Vdd, so the retime chain always hops between
	// Vdd neighbors.
	type opPlan struct {
		op     fdsoi.OperatingPoint
		clocks []float64
		at     [][]int // per clock: the triads folded from its capture
		eng    *sim.WideEngine
	}
	plans := []opPlan{}
	where := map[fdsoi.OperatingPoint]int{}
	for _, tr := range trs {
		op := tr.OperatingPoint()
		if _, ok := where[op]; !ok {
			where[op] = len(plans)
			plans = append(plans, opPlan{op: op})
		}
		pl := &plans[where[op]]
		if !slices.Contains(pl.clocks, tr.Tclk) {
			pl.clocks = append(pl.clocks, tr.Tclk)
		}
	}
	maxClocks := 0
	for pi := range plans {
		pl := &plans[pi]
		slices.Sort(pl.clocks)
		pl.at = make([][]int, len(pl.clocks))
		maxClocks = max(maxClocks, len(pl.clocks))
	}
	for i, tr := range trs {
		pl := &plans[where[tr.OperatingPoint()]]
		c, _ := slices.BinarySearch(pl.clocks, tr.Tclk)
		pl.at[c] = append(pl.at[c], i)
	}
	sort.SliceStable(plans, func(a, b int) bool {
		if plans[a].op.Vbb != plans[b].op.Vbb {
			return plans[a].op.Vbb < plans[b].op.Vbb
		}
		return plans[a].op.Vdd > plans[b].op.Vdd
	})
	for pi := range plans {
		eng, err := sim.NewWide(nl, cfg.Lib, *cfg.Proc, plans[pi].op, k)
		if err != nil {
			return nil, err
		}
		plans[pi].eng = eng
	}
	prevW := make([]uint64, nl.NumNets()*k)
	curW := make([]uint64, nl.NumNets()*k)
	samples := make([]sim.WideSample, maxClocks)
	wideStep := sim.WordLanes * k
	for wbase := 0; wbase < cfg.Patterns; wbase += wideStep {
		scatterWideImage(prevW, st.inputs, k, st.prev, wbase/sim.WordLanes)
		scatterWideImage(curW, st.inputs, k, st.cur, wbase/sim.WordLanes)
		// One chain of walks across the chunk's operating points: a
		// fresh simulation anchors each body-bias family (delay maps do
		// not rescale uniformly across Vbb), every further point down
		// the family's Vdd ladder retimes the anchor, and an order-check
		// rejection falls back to a fresh simulation that becomes the
		// new anchor.
		var anchor *sim.WideTrace
		anchorVbb := 0.0
		for pi := range plans {
			pl := &plans[pi]
			smp := samples[:len(pl.clocks)]
			ok := false
			if anchor != nil && pl.op.Vbb == anchorVbb {
				if ok, err = pl.eng.RetimeTrace(anchor, pl.clocks, smp); err != nil {
					return nil, err
				}
			}
			if !ok {
				if anchor, err = pl.eng.StepWideTrace(prevW, curW, outNets, pl.clocks, smp); err != nil {
					return nil, err
				}
				anchorVbb = pl.op.Vbb
			}
			for c, idx := range pl.at {
				for _, ti := range idx {
					if err := folds[ti].foldWide(st, wbase, k, smp[c].CapturedW, smp[c].EnergyFJ, smp[c].LateW); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	out := make([]*TriadResult, len(trs))
	for i, tr := range trs {
		out[i] = folds[i].result(tr, cfg.Patterns)
	}
	return out, nil
}

// outNets lists the operator's output bits in the error accumulator's
// order: sum LSB-first, then carry-out — the packing of the reference
// words.
func (p *Prepared) outNets() []netlist.NetID {
	psum, _ := p.Netlist.OutputPort(synth.PortSum)
	pcout, _ := p.Netlist.OutputPort(synth.PortCout)
	out := make([]netlist.NetID, 0, len(psum.Bits)+len(pcout.Bits))
	out = append(out, psum.Bits...)
	return append(out, pcout.Bits...)
}

// triadFold accumulates one triad's per-pattern outcomes — error
// statistics, energy and late count — in stimulus order.
type triadFold struct {
	acc    *metrics.ErrorAccumulator
	energy metrics.EnergyAccumulator
	late   int
}

func newTriadFold(outBits int) triadFold {
	return triadFold{acc: metrics.NewErrorAccumulator(outBits)}
}

// foldWide folds one K×64-pattern wide chunk starting at pattern wbase,
// per 64-pattern block in ascending word order: exactly the per-chunk
// accumulation sequence (and therefore the float sums) of the scalar
// reference loop. Each block's errors are diffed against the stimulus's
// reference lanes for that block; captured is in tracked-slot layout
// (captured[s·K+j] = output bit s, word j), energy carries K·64 lanes and
// late K words. Lanes past the end of the sweep are ignored.
func (f *triadFold) foldWide(st *stimulus, wbase, k int, captured []uint64, energy []float64, late []uint64) error {
	w := f.acc.Width()
	for j := 0; j < k; j++ {
		base := wbase + j*sim.WordLanes
		if base >= len(st.want) {
			break
		}
		n := min(len(st.want)-base, sim.WordLanes)
		for b := 0; b < n; b++ {
			f.energy.Add(energy[j*sim.WordLanes+b])
		}
		f.late += bits.OnesCount64(late[j] & laneMask(n))
		c := base / sim.WordLanes
		if err := f.acc.AddLaneBlock(st.want[base:base+n], st.wantLanes[c*w:c*w+w], captured, k, j); err != nil {
			return err
		}
	}
	return nil
}

// result closes the fold of a sweep of the given pattern count into the
// triad's result.
func (f *triadFold) result(tr triad.Triad, patterns int) *TriadResult {
	return &TriadResult{
		Triad:         tr,
		Acc:           f.acc,
		EnergyPerOpFJ: f.energy.MeanFJ(),
		LateFraction:  float64(f.late) / float64(patterns),
	}
}

// Run executes the full flow in process. Each group of the triad set is
// one job: a cross-voltage super-group per body-bias family when the
// configuration is Groupable (2 jobs covering the 14 electrical points of
// the paper's Table III set, each re-timing one recorded wave down its
// Vdd ladder), one triad otherwise. Up to GOMAXPROCS jobs run at once,
// each with private engines over the shared read-only netlist and an
// identical pattern stream ("same set of input patterns" per the paper).
func Run(cfg Config) (*Result, error) {
	prep, err := Prepare(cfg)
	if err != nil {
		return nil, err
	}
	set := prep.TriadSet()
	if len(set) == 0 {
		return nil, fmt.Errorf("charz: empty triad set")
	}
	res := &Result{Config: prep.Config, Netlist: prep.Netlist, Report: prep.Report,
		Triads: make([]TriadResult, len(set))}
	var groups [][]int
	if prep.Groupable() {
		groups = triad.SuperGroups(set)
	} else {
		for i := range set {
			groups = append(groups, []int{i})
		}
	}

	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	errs := make([]error, len(groups))
	for gi, idxs := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			trs := make([]triad.Triad, len(idxs))
			for j, i := range idxs {
				trs[j] = set[i]
			}
			outs, err := prep.RunGroup(trs)
			if err != nil {
				errs[gi] = err
				return
			}
			for j, i := range idxs {
				res.Triads[i] = *outs[j]
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res.NominalEnergyFJ = res.Triads[0].EnergyPerOpFJ
	for i := range res.Triads {
		res.Triads[i].Efficiency = metrics.EnergyEfficiency(
			res.Triads[i].EnergyPerOpFJ, res.NominalEnergyFJ)
	}
	return res, nil
}

// newStepper builds sweepTriadScalar's engine for one operating point
// behind the sim.Stepper seam: the gate-level engine or the switch-level
// RC engine, both driven through the same dense pattern loop.
func newStepper(nl *netlist.Netlist, cfg Config, tr triad.Triad) (sim.Stepper, error) {
	switch cfg.Backend {
	case BackendGate:
		return sim.New(nl, cfg.Lib, *cfg.Proc, tr.OperatingPoint()), nil
	case BackendRC:
		if cfg.Streaming {
			return nil, fmt.Errorf("charz: streaming capture is gate-backend only")
		}
		return rcsim.New(nl, cfg.Lib, *cfg.Proc, tr.OperatingPoint()), nil
	case BackendModel:
		return nil, fmt.Errorf("charz: model backend has no stepper — modeled points run through the engine calibrator (internal/model)")
	default:
		return nil, fmt.Errorf("charz: unknown backend %v", cfg.Backend)
	}
}

// sweepTriad runs the stimulus set through one triad. Groupable
// configurations ride the wide engine: one StepWideChunk per K×64
// patterns (K from the pattern count, as the grouped path picks it),
// folded per 64-pattern block through the same accumulation as the
// grouped path. Streaming capture and the RC backend step a scalar
// engine pattern by pattern in 64-pattern chunks whose captured outputs
// land in bit-sliced lane words, the reference the wide path is
// cross-checked against. Either way the error statistics are folded
// with the bit-sliced metrics.ErrorAccumulator lane calls, without
// unpacking to per-pattern scalars.
//
// Everything per-vector is hoisted out of the pattern loop — or out of
// the sweep entirely: the stimulus pairs, their bit-sliced batch
// references and the lane images are shared across all triads, and both
// step paths reuse the engine's result buffers, so the loop itself
// allocates nothing.
func (p *Prepared) sweepTriad(tr triad.Triad) (*TriadResult, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if p.Groupable() {
		return p.sweepTriadWide(tr)
	}
	return p.sweepTriadScalar(tr)
}

// sweepTriadWide is sweepTriad's wide-engine loop.
func (p *Prepared) sweepTriadWide(tr triad.Triad) (*TriadResult, error) {
	nl, cfg := p.Netlist, p.Config
	st, err := p.stimulusSet()
	if err != nil {
		return nil, err
	}
	k := p.wideK()
	eng, err := sim.NewWide(nl, cfg.Lib, *cfg.Proc, tr.OperatingPoint(), k)
	if err != nil {
		return nil, err
	}
	outNets := p.outNets()
	f := newTriadFold(len(outNets))
	prevW := make([]uint64, nl.NumNets()*k)
	curW := make([]uint64, nl.NumNets()*k)
	got := make([]uint64, len(outNets)*k)
	for wbase := 0; wbase < cfg.Patterns; wbase += sim.WordLanes * k {
		scatterWideImage(prevW, st.inputs, k, st.prev, wbase/sim.WordLanes)
		scatterWideImage(curW, st.inputs, k, st.cur, wbase/sim.WordLanes)
		res, err := eng.StepWideChunk(prevW, curW, tr.Tclk)
		if err != nil {
			return nil, err
		}
		for s, id := range outNets {
			copy(got[s*k:s*k+k], res.CapturedW[int(id)*k:int(id)*k+k])
		}
		if err := f.foldWide(st, wbase, k, got, res.EnergyFJ, res.LateW); err != nil {
			return nil, err
		}
	}
	return f.result(tr, cfg.Patterns), nil
}

// sweepTriadScalar is sweepTriad's scalar reference loop.
func (p *Prepared) sweepTriadScalar(tr triad.Triad) (*TriadResult, error) {
	nl, cfg := p.Netlist, p.Config
	st, err := p.stimulusSet()
	if err != nil {
		return nil, err
	}
	stepper, err := newStepper(nl, cfg, tr)
	if err != nil {
		return nil, err
	}
	step := stepper.StepDense
	if cfg.Streaming {
		eng, ok := stepper.(*sim.Engine)
		if !ok {
			return nil, fmt.Errorf("charz: %v backend cannot stream", cfg.Backend)
		}
		step = eng.StreamStepDense
	}
	img := netlist.CompileStimulus(nl)
	slotA, slotB := img.MustSlot(synth.PortA), img.MustSlot(synth.PortB)
	if err := stepper.ResetDense(img.Values()); err != nil {
		return nil, err
	}
	outNets := p.outNets()
	f := newTriadFold(len(outNets))
	gotBits := make([]uint64, len(outNets))
	for base := 0; base < cfg.Patterns; base += sim.WordLanes {
		n := min(cfg.Patterns-base, sim.WordLanes)
		for i := range gotBits {
			gotBits[i] = 0
		}
		for k := 0; k < n; k++ {
			img.SetSlot(slotA, st.as[base+k])
			img.SetSlot(slotB, st.bs[base+k])
			res, err := step(img.Values(), tr.Tclk)
			if err != nil {
				return nil, err
			}
			for i, id := range outNets {
				gotBits[i] |= uint64(res.Captured[id]&1) << uint(k)
			}
			f.energy.Add(res.EnergyFJ)
			if res.Late {
				f.late++
			}
		}
		w := len(outNets)
		c := base / sim.WordLanes
		if err := f.acc.AddLanes(st.want[base:base+n], st.wantLanes[c*w:c*w+w], gotBits); err != nil {
			return nil, err
		}
	}
	return f.result(tr, cfg.Patterns), nil
}

// laneMask selects the low n of 64 lanes.
func laneMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(n) - 1
}

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
	if c.PropagateP < 0 || c.PropagateP > 1 {
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

	// The stimulus stream and its zero-delay reference are identical for
	// every triad of a sweep ("same set of input patterns" per the paper),
	// so they are generated once per Prepared and shared read-only by the
	// concurrent point simulations.
	stimOnce sync.Once
	stimA    []uint64
	stimB    []uint64
	stimWant []uint64
	stimErr  error

	// The wide path's per-chunk lane images are likewise triad-independent
	// (the 64×64 operand transposes depend only on the stimulus), so they
	// are assembled once per sweep and shared read-only by every triad.
	// Stored compact (input-net entries only, parallel to imgInputs): the
	// engine reads nothing else, and a full per-net image per chunk would
	// make a large-Patterns sweep's resident set balloon.
	imgOnce   sync.Once
	imgInputs []netlist.NetID
	imgPrev   [][]uint64
	imgCur    [][]uint64
	imgErr    error
}

// stimulusSet lazily generates the sweep's stimulus pairs and their
// batched zero-delay reference words.
func (p *Prepared) stimulusSet() (as, bs, want []uint64, err error) {
	p.stimOnce.Do(func() {
		gen, err := patterns.NewPropagateProfile(p.Config.Width, p.Config.PropagateP, p.Config.Seed)
		if err != nil {
			p.stimErr = err
			return
		}
		p.stimA = make([]uint64, p.Config.Patterns)
		p.stimB = make([]uint64, p.Config.Patterns)
		for i := range p.stimA {
			p.stimA[i], p.stimB[i] = gen.Next()
		}
		p.stimWant, p.stimErr = batchReference(p.Netlist, p.Config.Width, p.stimA, p.stimB)
	})
	return p.stimA, p.stimB, p.stimWant, p.stimErr
}

// laneImages lazily assembles the wide path's chained per-chunk (prev,
// cur) lane images, indexed by 64-pattern chunk (pattern base /
// sim.WordLanes) and stored compact: entry j of a chunk image is input
// net inputs[j]'s lane word (scatterWideImage expands K consecutive
// chunks into a full lane-block image). Shared read-only by every triad
// and every electrical group of the sweep.
func (p *Prepared) laneImages() (inputs []netlist.NetID, prev, cur [][]uint64, err error) {
	p.imgOnce.Do(func() {
		as, bs, _, err := p.stimulusSet()
		if err != nil {
			p.imgErr = err
			return
		}
		for _, port := range p.Netlist.Inputs {
			p.imgInputs = append(p.imgInputs, port.Bits...)
		}
		step := newLaneStimulus(p.Netlist, as, bs)
		for base := 0; base < p.Config.Patterns; base += sim.WordLanes {
			n := p.Config.Patterns - base
			if n > sim.WordLanes {
				n = sim.WordLanes
			}
			pw, cw := step.images(base, n)
			cp := make([]uint64, 2*len(p.imgInputs))
			for j, id := range p.imgInputs {
				cp[j] = pw[id]
				cp[len(p.imgInputs)+j] = cw[id]
			}
			p.imgPrev = append(p.imgPrev, cp[:len(p.imgInputs)])
			p.imgCur = append(p.imgCur, cp[len(p.imgInputs):])
		}
	})
	return p.imgInputs, p.imgPrev, p.imgCur, p.imgErr
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
// K×64-pattern chunk is simulated once at the group's first operating
// point (sim.WideEngine, K picked from the sweep's pattern count) and
// re-timed across the remaining points with the order-checked
// cross-voltage retime, falling back to fresh simulation at any point
// whose event order is not preserved; every triad's Tclk is then
// resampled off its point's trace. Every returned TriadResult is
// bit-identical to an independent RunTriad of the same triad:
// resamples and retimes reproduce StepWideChunk exactly, and both paths
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
// electrical point, then one O(trace) resample per triad. Points are
// visited in descending-Vdd order within each family and every retime
// hops from the family's fresh anchor trace, and each point's trace
// is capped at its own capture horizon (its largest Tclk) so deep-VOS
// points skip nearly all per-lane energy attribution. Scratch lives for
// one call: an engine per electrical point, and one image pair, one
// retime destination and one sample shared by every point and chunk (a
// retimed trace is read only by its own point's resamples), so the chunk
// loop allocates nothing once the trace buffers have grown to steady
// state.
func (p *Prepared) sweepSuperGroup(trs []triad.Triad) ([]*TriadResult, error) {
	nl, cfg := p.Netlist, p.Config
	_, _, want, err := p.stimulusSet()
	if err != nil {
		return nil, err
	}
	inputs, prevImgs, curImgs, err := p.laneImages()
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
	// carrying its triads (in set order — accumulation into a triad's
	// own counters is order-sensitive only per triad) and its capture
	// horizon. Points are planned per body-bias family in descending
	// Vdd, so the retime chain always hops between Vdd neighbors.
	type opPlan struct {
		op      fdsoi.OperatingPoint
		idx     []int
		horizon float64
		eng     *sim.WideEngine
	}
	plans := []opPlan{}
	where := map[fdsoi.OperatingPoint]int{}
	for i, tr := range trs {
		op := tr.OperatingPoint()
		pi, ok := where[op]
		if !ok {
			pi = len(plans)
			where[op] = pi
			plans = append(plans, opPlan{op: op})
		}
		plans[pi].idx = append(plans[pi].idx, i)
		if tr.Tclk > plans[pi].horizon {
			plans[pi].horizon = tr.Tclk
		}
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
	var retimed sim.WideTrace
	prevW := make([]uint64, nl.NumNets()*k)
	curW := make([]uint64, nl.NumNets()*k)
	var sample sim.WideSample
	wideStep := sim.WordLanes * k
	for wbase := 0; wbase < cfg.Patterns; wbase += wideStep {
		scatterWideImage(prevW, inputs, k, prevImgs, wbase/sim.WordLanes)
		scatterWideImage(curW, inputs, k, curImgs, wbase/sim.WordLanes)
		// One chain of traces across the chunk's operating points: a
		// fresh simulation anchors each body-bias family (delay maps do
		// not rescale uniformly across Vbb), every further point down
		// the family's Vdd ladder retimes the anchor (retimed traces
		// are resample-only, so chains hop anchor → point), and an
		// order-check rejection falls back to a fresh simulation that
		// becomes the new anchor.
		var anchor *sim.WideTrace
		anchorVbb := 0.0
		for pi := range plans {
			pl := &plans[pi]
			var tr *sim.WideTrace
			if anchor != nil && pl.op.Vbb == anchorVbb {
				ok, err := pl.eng.RetimeTrace(anchor, pl.horizon, &retimed)
				if err != nil {
					return nil, err
				}
				if ok {
					tr = &retimed
				}
			}
			if tr == nil {
				tr, err = pl.eng.StepWideTrace(prevW, curW, outNets, pl.horizon)
				if err != nil {
					return nil, err
				}
				anchor, anchorVbb = tr, pl.op.Vbb
			}
			for _, ti := range pl.idx {
				if err := tr.Resample(trs[ti].Tclk, &sample); err != nil {
					return nil, err
				}
				if err := folds[ti].foldWide(want, wbase, k, sample.CapturedW, sample.EnergyFJ, sample.LateW); err != nil {
					return nil, err
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
// order: sum LSB-first, then carry-out — the packing of the batch
// reference words.
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
// reference loop. want holds the whole sweep's reference words; captured
// is in tracked-slot layout (captured[s·K+j] = output bit s, word j),
// energy carries K·64 lanes and late K words. Lanes past the end of the
// sweep are ignored.
func (f *triadFold) foldWide(want []uint64, wbase, k int, captured []uint64, energy []float64, late []uint64) error {
	for j := 0; j < k; j++ {
		base := wbase + j*sim.WordLanes
		if base >= len(want) {
			break
		}
		n := min(len(want)-base, sim.WordLanes)
		for b := 0; b < n; b++ {
			f.energy.Add(energy[j*sim.WordLanes+b])
		}
		f.late += bits.OnesCount64(late[j] & laneMask(n))
		if err := f.acc.AddLaneBlock(want[base:base+n], captured, k, j); err != nil {
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

// batchReference computes the zero-delay reference word (sum plus
// carry-out) for every stimulus pair through the netlist itself,
// netlist.BatchLanes vectors per bit-sliced EvaluateBatch pass. Using the
// netlist rather than host arithmetic keeps the reference honest for any
// operator wired to the adder ports, at ~1/64 of the scalar EvaluateInto
// cost.
func batchReference(nl *netlist.Netlist, width int, as, bs []uint64) ([]uint64, error) {
	pa, ok := nl.InputPort(synth.PortA)
	if !ok {
		return nil, fmt.Errorf("charz: netlist %s lacks input port %q", nl.Name, synth.PortA)
	}
	pb, ok := nl.InputPort(synth.PortB)
	if !ok {
		return nil, fmt.Errorf("charz: netlist %s lacks input port %q", nl.Name, synth.PortB)
	}
	psum, ok := nl.OutputPort(synth.PortSum)
	if !ok {
		return nil, fmt.Errorf("charz: netlist %s lacks output port %q", nl.Name, synth.PortSum)
	}
	pcout, ok := nl.OutputPort(synth.PortCout)
	if !ok {
		return nil, fmt.Errorf("charz: netlist %s lacks output port %q", nl.Name, synth.PortCout)
	}
	lanes := make([]uint64, nl.NumNets())
	want := make([]uint64, len(as))
	for base := 0; base < len(as); base += netlist.BatchLanes {
		n := len(as) - base
		if n > netlist.BatchLanes {
			n = netlist.BatchLanes
		}
		for k := 0; k < n; k++ {
			netlist.AssignPortLane(lanes, pa, uint(k), as[base+k])
			netlist.AssignPortLane(lanes, pb, uint(k), bs[base+k])
		}
		if err := nl.EvaluateBatch(lanes); err != nil {
			return nil, err
		}
		for k := 0; k < n; k++ {
			want[base+k] = netlist.PortLaneValue(psum, lanes, uint(k)) |
				netlist.PortLaneValue(pcout, lanes, uint(k))<<uint(width)
		}
	}
	return want, nil
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
	_, _, want, err := p.stimulusSet()
	if err != nil {
		return nil, err
	}
	inputs, prevImgs, curImgs, err := p.laneImages()
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
		scatterWideImage(prevW, inputs, k, prevImgs, wbase/sim.WordLanes)
		scatterWideImage(curW, inputs, k, curImgs, wbase/sim.WordLanes)
		res, err := eng.StepWideChunk(prevW, curW, tr.Tclk)
		if err != nil {
			return nil, err
		}
		for s, id := range outNets {
			copy(got[s*k:s*k+k], res.CapturedW[int(id)*k:int(id)*k+k])
		}
		if err := f.foldWide(want, wbase, k, got, res.EnergyFJ, res.LateW); err != nil {
			return nil, err
		}
	}
	return f.result(tr, cfg.Patterns), nil
}

// sweepTriadScalar is sweepTriad's scalar reference loop.
func (p *Prepared) sweepTriadScalar(tr triad.Triad) (*TriadResult, error) {
	nl, cfg := p.Netlist, p.Config
	as, bs, want, err := p.stimulusSet()
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
	st := netlist.CompileStimulus(nl)
	slotA, slotB := st.MustSlot(synth.PortA), st.MustSlot(synth.PortB)
	if err := stepper.ResetDense(st.Values()); err != nil {
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
			st.SetSlot(slotA, as[base+k])
			st.SetSlot(slotB, bs[base+k])
			res, err := step(st.Values(), tr.Tclk)
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
		if err := f.acc.AddLanes(want[base:base+n], gotBits); err != nil {
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

// laneStimulus assembles the wide path's per-64-pattern-chunk input
// images from the operand streams: bit k of curW[id] is net id's value
// under pattern base+k, and prevW carries each lane's predecessor
// pattern — lane 0's predecessor being the previous chunk's last pattern
// (or the all-zero reset state for the first chunk), so the chunked lane
// sweep replays exactly the scalar protocol's settled-state chaining.
type laneStimulus struct {
	nl      *netlist.Netlist
	pa, pb  netlist.Port
	as, bs  []uint64
	prevW   []uint64
	curW    []uint64
	lastBit []uint64 // per input net: the previous chunk's lane-63 value
}

func newLaneStimulus(nl *netlist.Netlist, as, bs []uint64) *laneStimulus {
	pa, _ := nl.InputPort(synth.PortA)
	pb, _ := nl.InputPort(synth.PortB)
	return &laneStimulus{
		nl: nl, pa: pa, pb: pb, as: as, bs: bs,
		prevW:   make([]uint64, nl.NumNets()),
		curW:    make([]uint64, nl.NumNets()),
		lastBit: make([]uint64, nl.NumNets()),
	}
}

// images builds the (prev, cur) lane images for the chunk starting at
// base with n active lanes: one 64×64 bit transpose per operand turns the
// pattern-indexed words into bit-indexed lane words (per-bit scattering
// was the sweep's top profile entry). Ragged chunks leave lanes ≥ n equal
// in both images (inert: no events, leakage-only energy, ignored by the
// caller).
func (s *laneStimulus) images(base, n int) (prevW, curW []uint64) {
	var ta, tb [64]uint64
	copy(ta[:], s.as[base:base+n])
	copy(tb[:], s.bs[base:base+n])
	metrics.Transpose64(&ta) // ta[i]: bit i of every pattern in the chunk
	metrics.Transpose64(&tb)
	for i, id := range s.pa.Bits {
		s.curW[id] = ta[i]
	}
	for i, id := range s.pb.Bits {
		s.curW[id] = tb[i]
	}
	lm := laneMask(n)
	for _, port := range s.nl.Inputs {
		for _, id := range port.Bits {
			cw := s.curW[id]
			// Lane k's predecessor is lane k-1's current vector; lane 0
			// chains from the previous chunk.
			s.prevW[id] = (cw<<1 | s.lastBit[id]) & lm
			s.lastBit[id] = cw >> 63 // consumed only after full chunks
		}
	}
	return s.prevW, s.curW
}

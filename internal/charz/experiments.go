package charz

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/patterns"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/triad"
)

// EngineAdder exposes a timing-simulator engine at a fixed triad as a
// core.HardwareAdder — the faulty-operator oracle of the paper's Fig. 6.
// Each Add runs one two-vector timing experiment (the previous operands
// are the launch state, exactly like the characterization sweep).
type EngineAdder struct {
	eng          *sim.Engine
	nl           *netlist.Netlist
	stim         *netlist.Stimulus
	slotA, slotB int
	psum, pcout  netlist.Port
	width        int
	tclk         float64
	energy       float64
	ops          uint64
}

// NewEngineAdder builds the oracle. The netlist must expose the synth
// adder ports (a, b, s, cout).
func NewEngineAdder(nl *netlist.Netlist, cfg Config, tr triad.Triad) (*EngineAdder, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	pa, ok := nl.InputPort(synth.PortA)
	if !ok {
		return nil, fmt.Errorf("charz: netlist %s lacks port %q", nl.Name, synth.PortA)
	}
	e := &EngineAdder{
		eng:   sim.New(nl, cfg.Lib, *cfg.Proc, tr.OperatingPoint()),
		nl:    nl,
		stim:  netlist.CompileStimulus(nl),
		width: len(pa.Bits),
		tclk:  tr.Tclk,
	}
	e.slotA, e.slotB = e.stim.MustSlot(synth.PortA), e.stim.MustSlot(synth.PortB)
	e.psum, _ = nl.OutputPort(synth.PortSum)
	e.pcout, _ = nl.OutputPort(synth.PortCout)
	if err := e.eng.ResetDense(e.stim.Values()); err != nil {
		return nil, err
	}
	return e, nil
}

// Width implements core.HardwareAdder.
func (e *EngineAdder) Width() int { return e.width }

// Add implements core.HardwareAdder. Simulation failures cannot occur for
// in-range operands, so Add panics rather than returning an error (the
// interface mirrors real hardware, which has no error channel either).
func (e *EngineAdder) Add(a, b uint64) uint64 {
	e.stim.SetSlot(e.slotA, a)
	e.stim.SetSlot(e.slotB, b)
	res, err := e.eng.StepDense(e.stim.Values(), e.tclk)
	if err != nil {
		panic(fmt.Sprintf("charz: simulation failed: %v", err))
	}
	sum := netlist.PortValue(e.psum, res.Captured)
	cout := netlist.PortValue(e.pcout, res.Captured)
	e.energy += res.EnergyFJ
	e.ops++
	return sum | cout<<uint(e.width)
}

// MeanEnergyFJ returns the average per-operation energy so far.
func (e *EngineAdder) MeanEnergyFJ() float64 {
	if e.ops == 0 {
		return 0
	}
	return e.energy / float64(e.ops)
}

// ModelStudy is the Fig. 7 experiment for one adder: per calibration
// metric, the model-vs-hardware SNR and normalized Hamming distance
// aggregated over all erroneous triads of the sweep.
type ModelStudy struct {
	Bench string
	// MeanSNRdB and MeanNormHamming index by core.Metric.
	MeanSNRdB       [3]float64
	MeanNormHamming [3]float64
	// TriadsUsed counts the triads contributing to the averages (those
	// with finite SNR, i.e. at least one hardware error; error-free
	// triads are modeled exactly and would inflate the mean with +Inf).
	TriadsUsed int
}

// Fig7Config tunes the model study.
type Fig7Config struct {
	// TrainPatterns and EvalPatterns per triad (paper: 20K SPICE patterns
	// total per triad).
	TrainPatterns int
	EvalPatterns  int
	// Seed decorrelates the training and evaluation streams.
	Seed uint64
}

// Fig7 trains the statistical model at every triad of an existing
// characterization result and reports the aggregated estimation accuracy
// per metric (Fig. 7a: SNR; Fig. 7b: normalized Hamming distance).
func Fig7(res *Result, fc Fig7Config) (*ModelStudy, error) {
	if fc.TrainPatterns <= 0 || fc.EvalPatterns <= 0 {
		return nil, fmt.Errorf("charz: Fig7 needs positive pattern counts")
	}
	cfg := res.Config
	study := &ModelStudy{Bench: cfg.BenchName()}
	var sumSNR, sumNH [3]float64
	used := 0
	for _, trRes := range res.Triads {
		hw, err := NewEngineAdder(res.Netlist, cfg, trRes.Triad)
		if err != nil {
			return nil, err
		}
		trainGen, err := patterns.NewPropagateProfile(cfg.Width, cfg.PropagateP, fc.Seed)
		if err != nil {
			return nil, err
		}
		trainSamples, err := core.CollectSamples(hw, trainGen, fc.TrainPatterns)
		if err != nil {
			return nil, err
		}
		evalGen, err := patterns.NewPropagateProfile(cfg.Width, cfg.PropagateP, fc.Seed^0xe7a1)
		if err != nil {
			return nil, err
		}
		evalSamples, err := core.CollectSamples(hw, evalGen, fc.EvalPatterns)
		if err != nil {
			return nil, err
		}
		anyFinite := false
		var snr, nh [3]float64
		for _, m := range core.Metrics() {
			table, err := core.TrainFromSamples(trainSamples, cfg.Width, m)
			if err != nil {
				return nil, err
			}
			model := &core.Model{Width: cfg.Width, Metric: m, Label: trRes.Triad.Label(), Table: table}
			approx, err := core.NewApproxAdder(model, fc.Seed^uint64(m))
			if err != nil {
				return nil, err
			}
			ev, err := core.EvaluateSamples(evalSamples, approx)
			if err != nil {
				return nil, err
			}
			if !math.IsInf(ev.SNRdB, 0) {
				anyFinite = true
			}
			snr[m] = ev.SNRdB
			nh[m] = ev.NormalizedHamming
		}
		if !anyFinite {
			continue // error-free triad: modeled exactly, skip
		}
		used++
		for m := range snr {
			if math.IsInf(snr[m], 1) {
				// Perfect reproduction of a faulty triad: credit a high
				// but finite SNR so means stay meaningful.
				snr[m] = 60
			}
			sumSNR[m] += snr[m]
			sumNH[m] += nh[m]
		}
	}
	if used == 0 {
		return nil, fmt.Errorf("charz: no erroneous triads to model")
	}
	for m := range sumSNR {
		study.MeanSNRdB[m] = sumSNR[m] / float64(used)
		study.MeanNormHamming[m] = sumNH[m] / float64(used)
	}
	study.TriadsUsed = used
	return study, nil
}

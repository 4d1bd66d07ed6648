package model

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/carry"
	"repro/internal/charz"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/patterns"
	"repro/internal/triad"
)

// Seed salts separating the deterministic streams one point consumes:
// the held-out evaluation patterns, the ApproxAdder used for the
// fidelity report, and the ApproxAdder that replays the full sweep
// stimulus. Distinct salts keep the streams independent — in
// particular, the fidelity adder and the replay adder must not share
// carry-sampling state, or the report would grade a different sampling
// path than the one results are served from.
const (
	evalSeedSalt     = 0xe7a1
	fidelitySeedSalt = 0xf1de
	replaySeedSalt   = 0x5e9b
)

// Trained is one calibrated operating point: the serializable model
// artifact plus the oracle-side measurements taken during calibration.
type Trained struct {
	// Model is the trained P(C | Cthmax) artifact.
	Model *core.Model
	// Fingerprint is ModelFingerprint(Model).
	Fingerprint string
	// Fidelity is the held-out cross-validation report.
	Fidelity core.Fidelity
	// EnergyPerOpFJ is the mean per-operation energy the oracle measured
	// over the calibration patterns — the model backend's energy figure
	// for this point.
	EnergyPerOpFJ float64
	// HWWordErrorRate is the fraction of calibration operations whose
	// captured hardware word differed from the exact sum: the modeled
	// stand-in for the gate sweep's late fraction (a late event is what
	// corrupts a captured word).
	HWWordErrorRate float64
}

// Calibrator trains and memoizes models per operating point: one
// training run per (netlist, seed, propagate probability, triad) for the
// calibrator's lifetime, however many sweeps, jobs or Prepared values
// ask for it. It is safe for concurrent use: concurrent requests for the
// same point share one training run (the engine's worker pool hits this
// from many goroutines). An optional Store persists every freshly
// trained model as a side effect; serving never reads the store, so a
// stale or divergent models directory can never change results —
// persistence is strictly an export channel for offline tools
// (cmd/vosmodel -load).
type Calibrator struct {
	spec  Spec
	store *Store

	mu     sync.Mutex
	points map[pointKey]*calEntry

	storeErrors atomic.Uint64
}

// pointKey identifies a calibration within one process by what
// calibrate reads. The netlist pointer stands for the operator and the
// library and process it was prepared under: the engine memoizes
// netlists by architecture, width, seed, mismatch, process and library,
// but hands every Prepare call a fresh *charz.Prepared, so keying on
// that pointer would retrain each job. Seed and PropagateP select the
// calibration stimulus; the pattern budget, backend and triad policy of
// the caller's Config play no part.
type pointKey struct {
	nl         *netlist.Netlist
	seed       uint64
	propagateP float64
	tr         triad.Triad
}

type calEntry struct {
	once sync.Once
	t    *Trained
	err  error
}

// NewCalibrator builds a calibrator for the given recipe. store may be
// nil (no persistence).
func NewCalibrator(spec Spec, store *Store) (*Calibrator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Calibrator{spec: spec, store: store, points: make(map[pointKey]*calEntry)}, nil
}

// Spec returns the calibration recipe.
func (c *Calibrator) Spec() Spec { return c.spec }

// StoreErrors counts model-persistence failures. Persistence is
// best-effort write-through: a read-only or full models directory must
// not fail sweeps, so errors are counted rather than returned.
func (c *Calibrator) StoreErrors() uint64 { return c.storeErrors.Load() }

// Point trains (or returns the memoized) model for one operating point
// of a prepared operator. Training drives the gate-level simulator
// oracle with spec.TrainPatterns pairs, fits Algorithm 1, then grades
// the fit on spec.EvalPatterns held-out pairs. All randomness derives
// from (cfg.Seed, triad), so every node trains the identical artifact.
func (c *Calibrator) Point(prep *charz.Prepared, tr triad.Triad) (*Trained, error) {
	key := pointKey{nl: prep.Netlist, seed: prep.Config.Seed, propagateP: prep.Config.PropagateP, tr: tr}
	c.mu.Lock()
	e, ok := c.points[key]
	if !ok {
		e = &calEntry{}
		c.points[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.t, e.err = c.calibrate(prep, tr) })
	return e.t, e.err
}

func (c *Calibrator) calibrate(prep *charz.Prepared, tr triad.Triad) (*Trained, error) {
	cfg := prep.Config
	calSeed := PointSeed(cfg.Seed, tr.Tclk, tr.Vdd, tr.Vbb)

	hw, err := charz.NewEngineAdder(prep.Netlist, cfg, tr)
	if err != nil {
		return nil, fmt.Errorf("model: oracle: %w", err)
	}
	trainGen, err := patterns.NewPropagateProfile(cfg.Width, cfg.PropagateP, calSeed)
	if err != nil {
		return nil, err
	}
	trainSamples, err := core.CollectSamples(hw, trainGen, c.spec.TrainPatterns)
	if err != nil {
		return nil, fmt.Errorf("model: training samples: %w", err)
	}
	table, err := core.TrainFromSamples(trainSamples, cfg.Width, c.spec.Metric)
	if err != nil {
		return nil, fmt.Errorf("model: train: %w", err)
	}
	m := &core.Model{Width: cfg.Width, Metric: c.spec.Metric, Label: tr.Label(), Table: table}
	fp, err := ModelFingerprint(m)
	if err != nil {
		return nil, err
	}

	evalGen, err := patterns.NewPropagateProfile(cfg.Width, cfg.PropagateP, calSeed^evalSeedSalt)
	if err != nil {
		return nil, err
	}
	evalSamples, err := core.CollectSamples(hw, evalGen, c.spec.EvalPatterns)
	if err != nil {
		return nil, fmt.Errorf("model: evaluation samples: %w", err)
	}
	approx, err := core.NewApproxAdder(m, calSeed^fidelitySeedSalt)
	if err != nil {
		return nil, err
	}
	ev, err := core.EvaluateSamples(evalSamples, approx)
	if err != nil {
		return nil, fmt.Errorf("model: evaluate: %w", err)
	}

	var hwErrs int
	for _, s := range trainSamples {
		if s.Ref != carry.ExactAdd(s.A, s.B, cfg.Width) {
			hwErrs++
		}
	}
	for _, s := range evalSamples {
		if s.Ref != carry.ExactAdd(s.A, s.B, cfg.Width) {
			hwErrs++
		}
	}
	total := len(trainSamples) + len(evalSamples)

	t := &Trained{
		Model:       m,
		Fingerprint: fp,
		Fidelity: core.Fidelity{
			SNRdB:         core.CapSNR(ev.SNRdB),
			DeltaBER:      absDiff(ev.BERModel, ev.BERHardware),
			BERModel:      ev.BERModel,
			BERHardware:   ev.BERHardware,
			TrainPatterns: c.spec.TrainPatterns,
			EvalPatterns:  c.spec.EvalPatterns,
			Fingerprint:   fp,
		},
		EnergyPerOpFJ:   hw.MeanEnergyFJ(),
		HWWordErrorRate: float64(hwErrs) / float64(total),
	}
	if c.store != nil {
		if err := c.store.Save(prep.Netlist.Name, tr, m); err != nil {
			c.storeErrors.Add(1)
		}
	}
	return t, nil
}

// RunPoint serves one modeled sweep point: calibrate (memoized), then
// replay the configured stimulus budget through the trained table
// instead of the simulator. The returned TriadResult has the same shape
// a gate-backend sweep produces — error statistics over the full output
// word, the oracle-measured per-op energy — plus the fidelity report,
// so modeled points flow through the engine's cache and event fabric
// unchanged.
func (c *Calibrator) RunPoint(prep *charz.Prepared, tr triad.Triad) (*charz.TriadResult, error) {
	t, err := c.Point(prep, tr)
	if err != nil {
		return nil, err
	}
	cfg := prep.Config
	calSeed := PointSeed(cfg.Seed, tr.Tclk, tr.Vdd, tr.Vbb)
	approx, err := core.NewApproxAdder(t.Model, calSeed^replaySeedSalt)
	if err != nil {
		return nil, err
	}
	gen, err := patterns.NewPropagateProfile(cfg.Width, cfg.PropagateP, cfg.Seed)
	if err != nil {
		return nil, err
	}
	acc := metrics.NewErrorAccumulator(cfg.Width + 1)
	for i := 0; i < cfg.Patterns; i++ {
		a, b := gen.Next()
		acc.Add(carry.ExactAdd(a, b, cfg.Width), approx.Add(a, b))
	}
	fid := t.Fidelity
	return &charz.TriadResult{
		Triad:         tr,
		Acc:           acc,
		EnergyPerOpFJ: t.EnergyPerOpFJ,
		LateFraction:  t.HWWordErrorRate,
		Fidelity:      &fid,
	}, nil
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

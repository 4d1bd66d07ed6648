package core

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/carry"
	"repro/internal/metrics"
	"repro/internal/patterns"
)

// ApproxAdder is the equivalent modified adder of the paper's Fig. 6: it
// imitates a VOS-afflicted hardware adder at functional speed. For each
// operand pair it (1) extracts the theoretical maximal carry chain, (2)
// draws the realized chain length Cmax from the trained probability table,
// and (3) computes the sum with carries truncated at Cmax.
//
// ApproxAdder itself satisfies HardwareAdder, so models can be stacked,
// compared, or re-characterized like hardware.
type ApproxAdder struct {
	model *Model
	rng   *rand.Rand
	// cdf[l][k] is P(0|l) + … + P(k|l) for k < l, summed left to right
	// as ProbTable.Sample sums it, so one draw u selects the same Cmax
	// bit for bit. Draws at or above cdf[l][l-1] select l.
	cdf [][]float64
}

// NewApproxAdder returns a sampling adder driven by the model with a
// deterministic seed. The adder snapshots the model's table.
func NewApproxAdder(m *Model, seed uint64) (*ApproxAdder, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := m.Width
	cdf := make([][]float64, n+1)
	flat := make([]float64, n*(n+1)/2)
	for l := range cdf {
		cdf[l], flat = flat[:l:l], flat[l:]
		var cum float64
		for k := range cdf[l] {
			cum += m.Table.P[k][l]
			cdf[l][k] = cum
		}
	}
	return &ApproxAdder{
		model: m,
		rng:   rand.New(rand.NewPCG(seed, 0xa99feed)),
		cdf:   cdf,
	}, nil
}

// Width implements HardwareAdder.
func (a *ApproxAdder) Width() int { return a.model.Width }

// Model returns the underlying model.
func (a *ApproxAdder) Model() *Model { return a.model }

// Add implements HardwareAdder: one approximate addition with a freshly
// sampled carry limit.
func (a *ApproxAdder) Add(in1, in2 uint64) uint64 {
	cth := carry.Cthmax(in1, in2, a.model.Width)
	return carry.LimitedAdd(in1, in2, a.model.Width, a.drawC(cth))
}

// drawC draws Cmax for Cthmax = l from one uniform, selecting what
// ProbTable.Sample selects for the same draw.
func (a *ApproxAdder) drawC(l int) int {
	u, col := a.rng.Float64(), a.cdf[l]
	if l == 0 || u >= col[l-1] {
		return l
	}
	k := 0
	for u >= col[k] {
		k++
	}
	return k
}

// AddWithC performs the modified addition with an explicit carry limit,
// bypassing the table (step 3 of the paper's usage recipe, exposed for
// analysis).
func (a *ApproxAdder) AddWithC(in1, in2 uint64, cmax int) uint64 {
	return carry.LimitedAdd(in1, in2, a.model.Width, cmax)
}

// ExactAdder is the golden reference in HardwareAdder form.
type ExactAdder struct{ W int }

// Width implements HardwareAdder.
func (e ExactAdder) Width() int { return e.W }

// Add implements HardwareAdder.
func (e ExactAdder) Add(a, b uint64) uint64 { return carry.ExactAdd(a, b, e.W) }

// Evaluation quantifies how well a model imitates its hardware on a test
// stream — the quantities behind Fig. 7.
type Evaluation struct {
	// SNRdB is the signal-to-noise ratio of the model outputs versus the
	// hardware outputs (hardware as signal), Fig. 7a's y-axis.
	SNRdB float64
	// NormalizedHamming is the mean per-bit disagreement, Fig. 7b's
	// y-axis.
	NormalizedHamming float64
	// MSE is the mean squared model-vs-hardware error.
	MSE float64
	// BERModel / BERHardware compare both against the exact sum: a good
	// model reproduces not just the outputs but the error *rate*.
	BERModel    float64
	BERHardware float64
	// Patterns is the evaluation stream length.
	Patterns int
}

// Evaluate runs n fresh pairs through both the hardware oracle and the
// model and reports the estimation-error statistics.
func Evaluate(hw HardwareAdder, model *ApproxAdder, gen patterns.Generator, n int) (*Evaluation, error) {
	if hw.Width() != model.Width() {
		return nil, fmt.Errorf("core: width mismatch %d vs %d", hw.Width(), model.Width())
	}
	if gen.Width() != hw.Width() {
		return nil, fmt.Errorf("core: generator width %d != %d", gen.Width(), hw.Width())
	}
	outW := hw.Width() + 1
	vsHW := metrics.NewErrorAccumulator(outW)
	hwVsExact := metrics.NewErrorAccumulator(outW)
	mdlVsExact := metrics.NewErrorAccumulator(outW)
	for i := 0; i < n; i++ {
		a, b := gen.Next()
		ref := hw.Add(a, b)
		got := model.Add(a, b)
		exact := carry.ExactAdd(a, b, hw.Width())
		vsHW.Add(ref, got)
		hwVsExact.Add(exact, ref)
		mdlVsExact.Add(exact, got)
	}
	return &Evaluation{
		SNRdB:             vsHW.SNR(),
		NormalizedHamming: vsHW.NormalizedHamming(),
		MSE:               vsHW.MSE(),
		BERModel:          mdlVsExact.BER(),
		BERHardware:       hwVsExact.BER(),
		Patterns:          n,
	}, nil
}

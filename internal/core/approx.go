package core

import (
	"fmt"
	"math"
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
// Every Add takes exactly one draw from the adder's seeded PCG stream, so
// the k-th add consumes the k-th draw: changing the order of the adds, or
// the number of draws an add takes, changes the results.
//
// ApproxAdder itself satisfies HardwareAdder, so models can be stacked,
// compared, or re-characterized like hardware.
type ApproxAdder struct {
	model *Model
	width int
	pcg   rand.PCG
	// thresh[l][k] is ⌈(P(0|l) + … + P(k|l))·2⁵³⌉ for k < l, the running
	// sum taken left to right as ProbTable.Sample takes it. A draw m, the
	// low 53 bits of a PCG word, selects the first k with m < thresh[l][k],
	// else l. Since m and the threshold are integers and c·2⁵³ is exact,
	// m ≥ ⌈c·2⁵³⌉ exactly when m/2⁵³ ≥ c: m/2⁵³ is rand.Rand.Float64 of
	// the same word, so this is the Cmax Sample selects for it.
	thresh [][]uint64
	// keep[l] is column l's keep threshold, thresh[l][l−1] (0 for l = 0):
	// a draw m ≥ keep[l] keeps the whole chain, so Add returns the exact
	// sum after this one compare. It is a fixed array indexed by Cthmax ≤
	// carry.MaxWidth, so the common exit reads no slice header.
	keep [carry.MaxWidth + 1]uint64
}

// NewApproxAdder returns a sampling adder driven by the model with a
// deterministic seed. The adder snapshots the model's table.
func NewApproxAdder(m *Model, seed uint64) (*ApproxAdder, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := m.Width
	thresh := make([][]uint64, n+1)
	flat := make([]uint64, n*(n+1)/2)
	for l := range thresh {
		thresh[l], flat = flat[:l:l], flat[l:]
		var cum float64
		for k := range thresh[l] {
			cum += m.Table.P[k][l]
			thresh[l][k] = uint64(math.Ceil(cum * (1 << 53)))
		}
	}
	a := &ApproxAdder{model: m, width: n, thresh: thresh}
	for l := 1; l <= n; l++ {
		a.keep[l] = thresh[l][l-1]
	}
	a.pcg.Seed(seed, 0xa99feed)
	return a, nil
}

// Width implements HardwareAdder.
func (a *ApproxAdder) Width() int { return a.model.Width }

// Model returns the underlying model.
func (a *ApproxAdder) Model() *Model { return a.model }

// Add implements HardwareAdder: one approximate addition with a freshly
// sampled carry limit, the next draw of the adder's stream.
func (a *ApproxAdder) Add(in1, in2 uint64) uint64 {
	return a.addDraw(in1, in2, a.pcg.Uint64()<<11>>11)
}

// addDraw adds in1 and in2 at the Cmax the draw m, the low 53 bits of
// one PCG word, selects. carry.Chains counts Cthmax in one walk of the
// carry words. A draw that keeps the whole chain returns the exact sum
// after one compare; only a truncating draw selects its Cmax and walks
// again, in carry.Truncate. Model widths stop at carry.MaxWidth, which
// Chains and keep need.
func (a *ApproxAdder) addDraw(in1, in2, m uint64) uint64 {
	sum, p, c, cth := carry.Chains(in1, in2, a.width)
	if m >= a.keep[cth] {
		return sum
	}
	return carry.Truncate(p, c, a.selectC(cth, m))
}

// selectC returns the Cmax the draw m selects for Cthmax = l.
func (a *ApproxAdder) selectC(l int, m uint64) int {
	if m >= a.keep[l] {
		return l
	}
	col := a.thresh[l]
	k := 0
	for m >= col[k] {
		k++
	}
	return k
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

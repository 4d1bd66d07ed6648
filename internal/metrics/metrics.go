// Package metrics implements the error and efficiency measures of the
// paper: bit error rate (BER, "ratio of faulty output bits over total
// output bits"), per-bit-position error probability (Fig. 5), mean square
// error and signal-to-noise ratio (Fig. 7a), plain and bit-significance-
// weighted Hamming distances (Section IV's calibration metrics), and
// energy efficiency relative to a nominal reference (Table IV).
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
)

// Hamming returns the number of differing bits between x and y over the
// low width bits.
func Hamming(x, y uint64, width int) int {
	m := mask(width)
	return bits.OnesCount64((x ^ y) & m)
}

// WeightedHamming returns the significance-weighted Hamming distance:
// differing bit i contributes 2^i.
func WeightedHamming(x, y uint64, width int) float64 {
	d := (x ^ y) & mask(width)
	var w float64
	for d != 0 {
		i := bits.TrailingZeros64(d)
		w += math.Ldexp(1, i)
		d &= d - 1
	}
	return w
}

// SquaredError returns (x−y)² treating both words as unsigned integers.
func SquaredError(x, y uint64) float64 {
	var d float64
	if x >= y {
		d = float64(x - y)
	} else {
		d = float64(y - x)
	}
	return d * d
}

func mask(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(width) - 1
}

// ErrorAccumulator gathers word-level error statistics over a stream of
// (reference, observed) pairs of a fixed output width.
type ErrorAccumulator struct {
	width      int
	words      uint64
	faultyBits uint64
	perBit     []uint64
	sumSqErr   float64
	sumSqSig   float64
	hamming    uint64
	weighted   float64
	faultyWord uint64
}

// NewErrorAccumulator returns an accumulator for width-bit outputs.
func NewErrorAccumulator(width int) *ErrorAccumulator {
	return &ErrorAccumulator{width: width, perBit: make([]uint64, width)}
}

// Width returns the output width.
func (a *ErrorAccumulator) Width() int { return a.width }

// Add records one observation: ref is the golden word, got the measured
// one.
func (a *ErrorAccumulator) Add(ref, got uint64) {
	a.words++
	d := (ref ^ got) & mask(a.width)
	if d != 0 {
		a.faultyWord++
	}
	a.faultyBits += uint64(bits.OnesCount64(d))
	for t := d; t != 0; t &= t - 1 {
		a.perBit[bits.TrailingZeros64(t)]++
	}
	a.hamming += uint64(bits.OnesCount64(d))
	a.weighted += WeightedHamming(ref, got, a.width)
	a.sumSqErr += SquaredError(ref&mask(a.width), got&mask(a.width))
	s := float64(ref & mask(a.width))
	a.sumSqSig += s * s
}

// Words returns the number of observations.
func (a *ErrorAccumulator) Words() uint64 { return a.words }

// BER returns the bit error rate in [0, 1].
func (a *ErrorAccumulator) BER() float64 {
	if a.words == 0 {
		return 0
	}
	return float64(a.faultyBits) / float64(a.words*uint64(a.width))
}

// WER returns the word error rate in [0, 1].
func (a *ErrorAccumulator) WER() float64 {
	if a.words == 0 {
		return 0
	}
	return float64(a.faultyWord) / float64(a.words)
}

// PerBitErrorProb returns the per-bit-position error probabilities
// (index 0 = LSB) — the quantity plotted in Fig. 5.
func (a *ErrorAccumulator) PerBitErrorProb() []float64 {
	out := make([]float64, a.width)
	if a.words == 0 {
		return out
	}
	for i, c := range a.perBit {
		out[i] = float64(c) / float64(a.words)
	}
	return out
}

// MSE returns the mean squared word error.
func (a *ErrorAccumulator) MSE() float64 {
	if a.words == 0 {
		return 0
	}
	return a.sumSqErr / float64(a.words)
}

// MeanHamming returns the mean Hamming distance per word.
func (a *ErrorAccumulator) MeanHamming() float64 {
	if a.words == 0 {
		return 0
	}
	return float64(a.hamming) / float64(a.words)
}

// NormalizedHamming returns the mean Hamming distance divided by the word
// width — Fig. 7b's y-axis.
func (a *ErrorAccumulator) NormalizedHamming() float64 {
	return a.MeanHamming() / float64(a.width)
}

// MeanWeightedHamming returns the mean significance-weighted Hamming
// distance per word.
func (a *ErrorAccumulator) MeanWeightedHamming() float64 {
	if a.words == 0 {
		return 0
	}
	return a.weighted / float64(a.words)
}

// SNR returns the signal-to-noise ratio in dB: 10·log10(Σref²/Σ(ref−got)²).
// A perfect stream returns +Inf.
func (a *ErrorAccumulator) SNR() float64 {
	if a.sumSqErr == 0 {
		return math.Inf(1)
	}
	if a.sumSqSig == 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(a.sumSqSig/a.sumSqErr)
}

// ErrorStats is the exported, serializable snapshot of an
// ErrorAccumulator. It carries the raw sufficient statistics rather than
// derived ratios, so a reconstructed accumulator reproduces every metric
// bit-for-bit — the property the characterization result cache relies on.
type ErrorStats struct {
	Width       int      `json:"width"`
	Words       uint64   `json:"words"`
	FaultyBits  uint64   `json:"faultyBits"`
	FaultyWords uint64   `json:"faultyWords"`
	PerBit      []uint64 `json:"perBit"`
	SumSqErr    float64  `json:"sumSqErr"`
	SumSqSig    float64  `json:"sumSqSig"`
	Hamming     uint64   `json:"hamming"`
	Weighted    float64  `json:"weighted"`
}

// Snapshot captures the accumulator's full state.
func (a *ErrorAccumulator) Snapshot() ErrorStats {
	s := ErrorStats{
		Width:       a.width,
		Words:       a.words,
		FaultyBits:  a.faultyBits,
		FaultyWords: a.faultyWord,
		PerBit:      make([]uint64, len(a.perBit)),
		SumSqErr:    a.sumSqErr,
		SumSqSig:    a.sumSqSig,
		Hamming:     a.hamming,
		Weighted:    a.weighted,
	}
	copy(s.PerBit, a.perBit)
	return s
}

// Accumulator reconstructs an accumulator from the snapshot.
func (s ErrorStats) Accumulator() (*ErrorAccumulator, error) {
	if s.Width < 1 {
		return nil, fmt.Errorf("metrics: snapshot width %d", s.Width)
	}
	if len(s.PerBit) != s.Width {
		return nil, fmt.Errorf("metrics: snapshot has %d per-bit counters for width %d",
			len(s.PerBit), s.Width)
	}
	a := NewErrorAccumulator(s.Width)
	a.words = s.Words
	a.faultyBits = s.FaultyBits
	a.faultyWord = s.FaultyWords
	copy(a.perBit, s.PerBit)
	a.sumSqErr = s.SumSqErr
	a.sumSqSig = s.SumSqSig
	a.hamming = s.Hamming
	a.weighted = s.Weighted
	return a, nil
}

// MarshalJSON serializes the accumulator via its snapshot.
func (a *ErrorAccumulator) MarshalJSON() ([]byte, error) {
	return json.Marshal(a.Snapshot())
}

// UnmarshalJSON restores the accumulator from a snapshot.
func (a *ErrorAccumulator) UnmarshalJSON(data []byte) error {
	var s ErrorStats
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	b, err := s.Accumulator()
	if err != nil {
		return err
	}
	*a = *b
	return nil
}

// Merge folds the observations of b into a. Widths must match.
func (a *ErrorAccumulator) Merge(b *ErrorAccumulator) error {
	if a.width != b.width {
		return fmt.Errorf("metrics: merge width mismatch %d vs %d", a.width, b.width)
	}
	a.words += b.words
	a.faultyBits += b.faultyBits
	a.faultyWord += b.faultyWord
	a.sumSqErr += b.sumSqErr
	a.sumSqSig += b.sumSqSig
	a.hamming += b.hamming
	a.weighted += b.weighted
	for i := range a.perBit {
		a.perBit[i] += b.perBit[i]
	}
	return nil
}

// EnergyEfficiency returns the fractional energy saving of e relative to
// the reference eRef ("amount of energy saving compared to ideal test
// case"): 1 − e/eRef.
func EnergyEfficiency(e, eRef float64) float64 {
	if eRef <= 0 {
		return 0
	}
	return 1 - e/eRef
}

// EnergyAccumulator averages per-operation energies.
type EnergyAccumulator struct {
	total float64
	n     uint64
}

// Add records one operation's energy (fJ).
func (e *EnergyAccumulator) Add(fj float64) {
	e.total += fj
	e.n++
}

// MeanFJ returns the average energy per operation (fJ).
func (e *EnergyAccumulator) MeanFJ() float64 {
	if e.n == 0 {
		return 0
	}
	return e.total / float64(e.n)
}

// TotalFJ returns the summed energy (fJ).
func (e *EnergyAccumulator) TotalFJ() float64 { return e.total }

// Count returns the number of operations.
func (e *EnergyAccumulator) Count() uint64 { return e.n }

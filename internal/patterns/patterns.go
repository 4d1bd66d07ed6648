// Package patterns generates the input stimuli of the characterization
// flow. The paper applies 20 000 vector pairs per operating triad, "chosen
// in such a way that all the input bits carry equal probability to
// propagate carry in the chain"; Uniform delivers exactly that
// (P(propagate) = ½ per bit), and PropagateProfile generalizes it for the
// ablation studies (biasing carry-chain lengths up or down).
//
// PropagateProfile's draw sequence is part of every recorded result: the
// characterization stimulus, the model calibration pairs and therefore
// every golden (the parity corpus, the Monte Carlo golden, the perfbench
// digests, the REST and command goldens) pin it. Each operand bit, LSB
// first, takes exactly two PCG draws — the propagate test, then the bit
// that picks the operand (propagate) or generate versus kill. Changing
// that sequence, even to an equally random one, is a results change.
package patterns

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Generator produces operand pairs for a fixed bit width.
type Generator interface {
	// Width is the operand width in bits (≤ 64).
	Width() int
	// Next returns the next operand pair.
	Next() (a, b uint64)
	// Reset rewinds the generator to its initial state so a second sweep
	// sees the identical sequence.
	Reset()
}

func mask(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(width) - 1
}

func validWidth(width int) error {
	if width < 1 || width > 64 {
		return fmt.Errorf("patterns: width %d outside [1, 64]", width)
	}
	return nil
}

// Uniform draws independent uniformly random operand pairs.
type Uniform struct {
	width int
	seed  uint64
	rng   *rand.Rand
}

// NewUniform returns a deterministic uniform generator.
func NewUniform(width int, seed uint64) (*Uniform, error) {
	if err := validWidth(width); err != nil {
		return nil, err
	}
	u := &Uniform{width: width, seed: seed}
	u.Reset()
	return u, nil
}

// Width implements Generator.
func (u *Uniform) Width() int { return u.width }

// Next implements Generator.
func (u *Uniform) Next() (uint64, uint64) {
	m := mask(u.width)
	return u.rng.Uint64() & m, u.rng.Uint64() & m
}

// Reset implements Generator.
func (u *Uniform) Reset() { u.rng = rand.New(rand.NewPCG(u.seed, 0x5eed)) }

// PropagateProfile draws operand pairs with a chosen per-bit carry
// behaviour: each bit position is a propagate position (a⊕b = 1) with
// probability P, otherwise a kill or generate with equal probability.
// P = 0.5 reproduces the uniform distribution; larger P stresses long
// carry chains, smaller P suppresses them.
type PropagateProfile struct {
	width int
	seed  uint64
	// thresh is ⌈P·2⁵³⌉: a draw x propagates when its low 53 bits, read
	// as an integer, fall below it — exactly rand.Rand.Float64() < P,
	// since that float is those 53 bits over 2⁵³ and P·2⁵³ is exact.
	thresh uint64
	rng    rand.PCG
}

// NewPropagateProfile returns a deterministic biased generator.
func NewPropagateProfile(width int, p float64, seed uint64) (*PropagateProfile, error) {
	if err := validWidth(width); err != nil {
		return nil, err
	}
	if !(p >= 0 && p <= 1) {
		return nil, fmt.Errorf("patterns: propagate probability %v outside [0, 1]", p)
	}
	g := &PropagateProfile{width: width, seed: seed, thresh: uint64(math.Ceil(p * (1 << 53)))}
	g.Reset()
	return g, nil
}

// Width implements Generator.
func (g *PropagateProfile) Width() int { return g.width }

// Next implements Generator. Per bit, LSB first, it takes two draws: the
// propagate test, then y, the second draw's LSB. Propagate sets (a, b) to
// (1, 0) when y = 0 and (0, 1) when y = 1; otherwise y = 0 generates
// (1, 1) and y = 1 kills (0, 0). Both cases are a = ¬y and b = prop ⊕ ¬y,
// set without branching.
func (g *PropagateProfile) Next() (uint64, uint64) {
	var a, b uint64
	for i := 0; i < g.width; i++ {
		// x < thresh ≤ 2⁵³, so the difference borrows (sets bit 63)
		// exactly when the bit propagates.
		prop := (g.rng.Uint64()<<11>>11 - g.thresh) >> 63
		ny := g.rng.Uint64()&1 ^ 1
		a |= ny << uint(i)
		b |= (prop ^ ny) << uint(i)
	}
	return a, b
}

// Reset implements Generator.
func (g *PropagateProfile) Reset() { g.rng.Seed(g.seed, 0xb1a5) }

// Exhaustive enumerates every operand pair of a small width in row-major
// order, then wraps around.
type Exhaustive struct {
	width int
	next  uint64
}

// NewExhaustive returns an exhaustive generator; width must keep the total
// pair count below 2³² (width ≤ 16).
func NewExhaustive(width int) (*Exhaustive, error) {
	if err := validWidth(width); err != nil {
		return nil, err
	}
	if width > 16 {
		return nil, fmt.Errorf("patterns: exhaustive width %d too large (max 16)", width)
	}
	return &Exhaustive{width: width}, nil
}

// Width implements Generator.
func (e *Exhaustive) Width() int { return e.width }

// Count returns the number of distinct pairs.
func (e *Exhaustive) Count() uint64 {
	n := mask(e.width) + 1
	return n * n
}

// Next implements Generator.
func (e *Exhaustive) Next() (uint64, uint64) {
	n := mask(e.width) + 1
	a, b := e.next/n, e.next%n
	e.next++
	if e.next >= n*n {
		e.next = 0
	}
	return a, b
}

// Reset implements Generator.
func (e *Exhaustive) Reset() { e.next = 0 }

// Fixed replays a fixed list of pairs, wrapping around.
type Fixed struct {
	width int
	pairs [][2]uint64
	next  int
}

// NewFixed wraps an explicit pair list (directed tests).
func NewFixed(width int, pairs [][2]uint64) (*Fixed, error) {
	if err := validWidth(width); err != nil {
		return nil, err
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("patterns: empty pair list")
	}
	m := mask(width)
	for i, p := range pairs {
		if p[0] > m || p[1] > m {
			return nil, fmt.Errorf("patterns: pair %d out of range for width %d", i, width)
		}
	}
	return &Fixed{width: width, pairs: pairs}, nil
}

// Width implements Generator.
func (f *Fixed) Width() int { return f.width }

// Next implements Generator.
func (f *Fixed) Next() (uint64, uint64) {
	p := f.pairs[f.next]
	f.next = (f.next + 1) % len(f.pairs)
	return p[0], p[1]
}

// Reset implements Generator.
func (f *Fixed) Reset() { f.next = 0 }

// Collect draws n pairs from g.
func Collect(g Generator, n int) [][2]uint64 {
	out := make([][2]uint64, n)
	for i := range out {
		a, b := g.Next()
		out[i] = [2]uint64{a, b}
	}
	return out
}

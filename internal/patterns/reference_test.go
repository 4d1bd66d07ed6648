package patterns

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// referenceProfile is the bit-at-a-time PropagateProfile loop: per bit,
// rand.Rand.Float64 against P through the Source interface, then a
// branch on the second draw's LSB. PropagateProfile must reproduce its
// pairs exactly.
type referenceProfile struct {
	width int
	seed  uint64
	p     float64
	rng   *rand.Rand
}

func newReferenceProfile(width int, p float64, seed uint64) *referenceProfile {
	g := &referenceProfile{width: width, seed: seed, p: p}
	g.Reset()
	return g
}

func (g *referenceProfile) Next() (uint64, uint64) {
	var a, b uint64
	for i := 0; i < g.width; i++ {
		if g.rng.Float64() < g.p {
			// Propagate: (0,1) or (1,0).
			if g.rng.Uint64()&1 == 0 {
				a |= 1 << uint(i)
			} else {
				b |= 1 << uint(i)
			}
		} else if g.rng.Uint64()&1 == 0 {
			// Generate: (1,1).
			a |= 1 << uint(i)
			b |= 1 << uint(i)
		}
		// else kill: (0,0).
	}
	return a, b
}

func (g *referenceProfile) Reset() { g.rng = rand.New(rand.NewPCG(g.seed, 0xb1a5)) }

// checkProfileAgainstReference draws n pairs from both generators, resets
// both, and draws n more.
func checkProfileAgainstReference(width int, p float64, seed uint64, n int) error {
	g, err := NewPropagateProfile(width, p, seed)
	if err != nil {
		return err
	}
	ref := newReferenceProfile(width, p, seed)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			a, b := g.Next()
			ra, rb := ref.Next()
			if a != ra || b != rb {
				return fmt.Errorf("width %d p %v seed %d pass %d pair %d: got (%#x, %#x), reference (%#x, %#x)",
					width, p, seed, pass, i, a, b, ra, rb)
			}
		}
		g.Reset()
		ref.Reset()
	}
	return nil
}

// TestPropagateProfileMatchesReference: the branchless generator draws
// the reference loop's pairs at every width, at the probabilities where
// the propagate test is decided by its extreme draws, at random ones,
// and at probabilities placed exactly on and just around an actual draw.
func TestPropagateProfileMatchesReference(t *testing.T) {
	ps := []float64{0, 0x1p-53, 0.2, 0.5, 0.8, 1 - 0x1p-53, 1}
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 8; i++ {
		ps = append(ps, rng.Float64())
	}
	for width := 1; width <= 64; width++ {
		for i, p := range ps {
			if err := checkProfileAgainstReference(width, p, uint64(width*100+i), 40); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The first draw of a stream is the first propagate test. A P equal
	// to its float must not propagate; the next float up, and a P between
	// it and the next multiple of 2⁻⁵³ (there is one below ½), must.
	below := 0
	for seed := uint64(1); seed <= 8; seed++ {
		x := rand.New(rand.NewPCG(seed, 0xb1a5)).Float64()
		if x < 0.5 {
			below++
		}
		for _, p := range []float64{x, math.Nextafter(x, 1), math.Nextafter(x, 0), x + 0x1p-54} {
			if err := checkProfileAgainstReference(1+int(seed)%64, p, seed, 4); err != nil {
				t.Fatal(err)
			}
		}
	}
	if below == 0 {
		t.Fatal("no first draw below ½: the between-floats case went untested")
	}
}

// FuzzPropagateProfileMatchesReference checks PropagateProfile against
// the reference loop at fuzzed widths, probabilities and seeds. Its seed
// corpus is testdata/fuzz/FuzzPropagateProfileMatchesReference.
func FuzzPropagateProfileMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, w uint8, p float64, seed uint64) {
		width := int(w%64) + 1
		if !(p >= 0 && p <= 1) {
			if _, err := NewPropagateProfile(width, p, seed); err == nil {
				t.Fatalf("probability %v accepted", p)
			}
			return
		}
		if err := checkProfileAgainstReference(width, p, seed, 8); err != nil {
			t.Fatal(err)
		}
	})
}

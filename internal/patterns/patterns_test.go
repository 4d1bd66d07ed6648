package patterns

import (
	"math"
	"testing"

	"repro/internal/carry"
)

func TestUniformDeterministic(t *testing.T) {
	g1, err := NewUniform(8, 42)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewUniform(8, 42)
	for i := 0; i < 100; i++ {
		a1, b1 := g1.Next()
		a2, b2 := g2.Next()
		if a1 != a2 || b1 != b2 {
			t.Fatalf("diverged at %d", i)
		}
	}
}

func TestUniformMaskedToWidth(t *testing.T) {
	g, _ := NewUniform(5, 7)
	for i := 0; i < 1000; i++ {
		a, b := g.Next()
		if a > 31 || b > 31 {
			t.Fatalf("out of range: %d %d", a, b)
		}
	}
}

func TestUniformResetRewinds(t *testing.T) {
	g, _ := NewUniform(16, 9)
	first := Collect(g, 10)
	g.Reset()
	second := Collect(g, 10)
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("Reset did not rewind")
		}
	}
}

func TestUniformPropagateProbability(t *testing.T) {
	// Uniform operands give P(propagate)=0.5 per bit — the paper's "equal
	// probability to propagate carry".
	g, _ := NewUniform(8, 11)
	const n = 20000
	props := 0
	for i := 0; i < n; i++ {
		a, b := g.Next()
		_, p := carry.GenProp(a, b, 8)
		for k := 0; k < 8; k++ {
			if p>>uint(k)&1 == 1 {
				props++
			}
		}
	}
	got := float64(props) / float64(n*8)
	if math.Abs(got-0.5) > 0.01 {
		t.Fatalf("propagate probability = %v, want ≈0.5", got)
	}
}

func TestPropagateProfileBias(t *testing.T) {
	for _, p := range []float64{0.2, 0.5, 0.8} {
		g, err := NewPropagateProfile(8, p, 13)
		if err != nil {
			t.Fatal(err)
		}
		const n = 20000
		props := 0
		for i := 0; i < n; i++ {
			a, b := g.Next()
			_, pw := carry.GenProp(a, b, 8)
			for k := 0; k < 8; k++ {
				if pw>>uint(k)&1 == 1 {
					props++
				}
			}
		}
		got := float64(props) / float64(n*8)
		if math.Abs(got-p) > 0.015 {
			t.Fatalf("p=%v: measured %v", p, got)
		}
	}
}

func TestPropagateProfileLongChains(t *testing.T) {
	// Higher propagate probability must lengthen the average Cthmax.
	mean := func(p float64) float64 {
		g, _ := NewPropagateProfile(16, p, 17)
		var sum float64
		const n = 5000
		for i := 0; i < n; i++ {
			a, b := g.Next()
			sum += float64(carry.Cthmax(a, b, 16))
		}
		return sum / n
	}
	lo, hi := mean(0.2), mean(0.8)
	if hi <= lo {
		t.Fatalf("chain length did not grow with propagate bias: %v vs %v", lo, hi)
	}
}

func TestExhaustiveCoversAllPairs(t *testing.T) {
	g, err := NewExhaustive(3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]uint64]bool{}
	for i := uint64(0); i < g.Count(); i++ {
		a, b := g.Next()
		seen[[2]uint64{a, b}] = true
	}
	if len(seen) != 64 {
		t.Fatalf("covered %d pairs, want 64", len(seen))
	}
	// Wraps around.
	a, b := g.Next()
	if a != 0 || b != 0 {
		t.Fatalf("wrap gave (%d,%d)", a, b)
	}
}

func TestExhaustiveRejectsWideWidth(t *testing.T) {
	if _, err := NewExhaustive(17); err == nil {
		t.Fatal("accepted width 17")
	}
}

func TestFixed(t *testing.T) {
	f, err := NewFixed(4, [][2]uint64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	a, b := f.Next()
	if a != 1 || b != 2 {
		t.Fatalf("first = (%d,%d)", a, b)
	}
	f.Next()
	a, b = f.Next() // wrapped
	if a != 1 || b != 2 {
		t.Fatalf("wrap = (%d,%d)", a, b)
	}
	f.Reset()
	a, _ = f.Next()
	if a != 1 {
		t.Fatal("Reset did not rewind")
	}
	if _, err := NewFixed(4, nil); err == nil {
		t.Fatal("empty list accepted")
	}
	if _, err := NewFixed(2, [][2]uint64{{9, 0}}); err == nil {
		t.Fatal("out-of-range pair accepted")
	}
}

func TestWidthValidation(t *testing.T) {
	if _, err := NewUniform(0, 1); err == nil {
		t.Fatal("width 0 accepted")
	}
	if _, err := NewUniform(65, 1); err == nil {
		t.Fatal("width 65 accepted")
	}
	if _, err := NewPropagateProfile(8, 1.5, 1); err == nil {
		t.Fatal("probability 1.5 accepted")
	}
	if _, err := NewPropagateProfile(8, math.NaN(), 1); err == nil {
		t.Fatal("probability NaN accepted")
	}
}

func TestGeneratorInterfaces(t *testing.T) {
	var gens []Generator
	u, _ := NewUniform(8, 1)
	p, _ := NewPropagateProfile(8, 0.5, 1)
	e, _ := NewExhaustive(4)
	f, _ := NewFixed(8, [][2]uint64{{0, 0}})
	gens = append(gens, u, p, e, f)
	for _, g := range gens {
		if g.Width() != 8 && g.Width() != 4 {
			t.Fatalf("width = %d", g.Width())
		}
		g.Next()
		g.Reset()
	}
}

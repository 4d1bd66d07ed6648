package metrics

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
)

// TestTranspose64 pins the transpose orientation: out[k] bit i == in[i]
// bit k.
func TestTranspose64(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	var x, orig [64]uint64
	for i := range x {
		x[i] = rng.Uint64()
	}
	orig = x
	Transpose64(&x)
	for i := 0; i < 64; i++ {
		for k := 0; k < 64; k++ {
			if x[k]>>uint(i)&1 != orig[i]>>uint(k)&1 {
				t.Fatalf("transpose64: out[%d] bit %d != in[%d] bit %d", k, i, i, k)
			}
		}
	}
	// Involution: transposing twice restores the input.
	Transpose64(&x)
	if x != orig {
		t.Fatal("transpose64 is not an involution")
	}
}

// TestAddLanesMatchesAdd feeds identical observation streams through the
// scalar Add loop and through chunked AddLanes (including ragged final
// chunks) and requires byte-identical snapshots — the property that lets
// the characterization flow switch to lane accumulation without
// perturbing the golden parity results.
func TestAddLanesMatchesAdd(t *testing.T) {
	for _, tc := range []struct {
		width, n int
		errp     float64
	}{
		{9, 300, 0.3},   // parity-golden shape: 8-bit adder + carry, ragged tail
		{17, 256, 0.05}, // 16-bit adder + carry, exact chunks
		{33, 1000, 0.7}, // widest simulator output, dense errors
		{5, 63, 1.0},    // sub-chunk stream, every word faulty
	} {
		rng := rand.New(rand.NewPCG(uint64(tc.width), uint64(tc.n)))
		m := mask(tc.width)
		refs := make([]uint64, tc.n)
		gots := make([]uint64, tc.n)
		for i := range refs {
			refs[i] = rng.Uint64() & m
			gots[i] = refs[i]
			if rng.Float64() < tc.errp {
				gots[i] ^= rng.Uint64() & m
			}
		}

		scalar := NewErrorAccumulator(tc.width)
		for i := range refs {
			scalar.Add(refs[i], gots[i])
		}

		lanes := NewErrorAccumulator(tc.width)
		for base := 0; base < tc.n; base += Lanes {
			n := tc.n - base
			if n > Lanes {
				n = Lanes
			}
			got := lanesOf(gots[base:base+n], tc.width)
			if err := lanes.AddLanes(refs[base:base+n], lanesOf(refs[base:base+n], tc.width), got); err != nil {
				t.Fatal(err)
			}
		}

		if s, l := scalar.Snapshot(), lanes.Snapshot(); !reflect.DeepEqual(s, l) {
			t.Fatalf("width %d n %d: snapshots diverged\nscalar: %+v\nlanes:  %+v",
				tc.width, tc.n, s, l)
		}
	}
}

// TestAddLanesValidation pins the error behavior.
func TestAddLanesValidation(t *testing.T) {
	a := NewErrorAccumulator(4)
	four := make([]uint64, 4)
	if err := a.AddLanes(nil, nil, nil); err != nil {
		t.Fatalf("empty AddLanes: %v", err)
	}
	if err := a.AddLanes(make([]uint64, 65), four, four); err == nil {
		t.Fatal("oversized chunk accepted")
	}
	if err := a.AddLanes(make([]uint64, 3), four, make([]uint64, 5)); err == nil {
		t.Fatal("wrong lane-word count accepted")
	}
	if err := a.AddLanes(make([]uint64, 3), make([]uint64, 5), four); err == nil {
		t.Fatal("wrong reference lane-word count accepted")
	}
	if err := a.AddLaneBlock(make([]uint64, 3), four, make([]uint64, 8), 2, 2); err == nil {
		t.Fatal("block word outside the block accepted")
	}
	wide := NewErrorAccumulator(70)
	if err := wide.AddLanes(make([]uint64, 3), make([]uint64, 70), make([]uint64, 70)); err == nil {
		t.Fatal("width beyond the 64-bit transpose accepted")
	}
	if a.Words() != 0 {
		t.Fatal("failed AddLanes mutated the accumulator")
	}
}

// lanesOf transposes up to 64 per-pattern words into width lane words:
// bit k of lane i is bit i of words[k].
func lanesOf(words []uint64, width int) []uint64 {
	var x [64]uint64
	copy(x[:], words)
	Transpose64(&x)
	return append([]uint64(nil), x[:width]...)
}

// sameSnapshot reports whether two snapshots agree bit for bit, floats
// compared by their bits (reflect.DeepEqual would equate -0 and +0).
func sameSnapshot(a, b ErrorStats) bool {
	fa := []float64{a.SumSqErr, a.SumSqSig, a.Weighted}
	fb := []float64{b.SumSqErr, b.SumSqSig, b.Weighted}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	a.SumSqErr, a.SumSqSig, a.Weighted = 0, 0, 0
	b.SumSqErr, b.SumSqSig, b.Weighted = 0, 0, 0
	return reflect.DeepEqual(a, b)
}

// FuzzLaneFoldMatchesScalar: folding one block word of a K-word lane
// image from reference lanes must leave the accumulator's snapshot equal,
// bit for bit, to n scalar Add calls of the same observations — on an
// accumulator that already holds one observation, for widths 1–53,
// 1–64 patterns and K 1–8. dirty selects the patterns whose observed
// word differs from the reference; the other block words and the lanes
// past n hold noise the fold must ignore.
func FuzzLaneFoldMatchesScalar(f *testing.F) {
	f.Fuzz(func(t *testing.T, width, n, k, word uint8, seed, dirty uint64) {
		w, np, kw := 1+int(width)%53, 1+int(n)%64, 1+int(k)%8
		wd := int(word) % kw
		rng := rand.New(rand.NewPCG(seed, dirty))
		m := mask(w)
		var refs, gots [64]uint64
		for p := range refs {
			refs[p] = rng.Uint64() & m
			gots[p] = rng.Uint64() & m // noise past n
			if p < np {
				gots[p] = refs[p]
				if dirty>>uint(p)&1 == 1 {
					gots[p] ^= (rng.Uint64() | 1) & m
				}
			}
		}
		refLanes, gotLanes := lanesOf(refs[:], w), lanesOf(gots[:], w)
		block := make([]uint64, w*kw)
		for i := range block {
			block[i] = rng.Uint64()
		}
		for i := 0; i < w; i++ {
			block[i*kw+wd] = gotLanes[i]
		}
		scalar, lanes := NewErrorAccumulator(w), NewErrorAccumulator(w)
		r0, g0 := seed&m, (seed>>7)&m
		scalar.Add(r0, g0)
		lanes.Add(r0, g0)
		for p := 0; p < np; p++ {
			scalar.Add(refs[p], gots[p])
		}
		if err := lanes.AddLaneBlock(refs[:np], refLanes, block, kw, wd); err != nil {
			t.Fatal(err)
		}
		if s, l := scalar.Snapshot(), lanes.Snapshot(); !sameSnapshot(s, l) {
			t.Fatalf("width %d n %d k %d word %d: snapshots diverged\nscalar: %+v\nlanes:  %+v",
				w, np, kw, wd, s, l)
		}
	})
}

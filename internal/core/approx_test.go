package core

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"testing"

	"repro/internal/carry"
)

// referenceAdder is the replay ApproxAdder replaced, kept as its oracle:
// ProbTable.Sample draws Cmax from a rand.Rand over the adder's PCG
// stream, carry.Cthmax gives the chain the column is picked by, and
// carry.LimitedAdd truncates at the draw.
type referenceAdder struct {
	m   *Model
	rng *rand.Rand
}

func newReferenceAdder(m *Model, seed uint64) *referenceAdder {
	return &referenceAdder{m: m, rng: rand.New(rand.NewPCG(seed, 0xa99feed))}
}

func (r *referenceAdder) Add(a, b uint64) uint64 {
	w := r.m.Width
	return carry.LimitedAdd(a, b, w, r.m.Table.Sample(carry.Cthmax(a, b, w), r.rng))
}

// randomTable returns a valid n-bit table whose columns spread random
// mass over a random subset of rows k ≤ l. Zero entries make cumulative
// sums tie, and rounding may leave a column's running sum just short
// of 1.
func randomTable(n int, rng *rand.Rand) *ProbTable {
	t := NewProbTable(n)
	for l := 0; l <= n; l++ {
		var sum float64
		for k := 0; k <= l; k++ {
			if rng.IntN(3) > 0 {
				t.P[k][l] = rng.Float64()
				sum += t.P[k][l]
			}
		}
		if sum == 0 {
			t.P[l][l], sum = 1, 1
		}
		for k := 0; k <= l; k++ {
			t.P[k][l] /= sum
		}
	}
	return t
}

// TestApproxAdderDrawsLikeSample pins the adder's integer thresholds to
// the reference ProbTable.Sample: under one seed both select the same
// Cmax on every draw, and Add returns the sum truncated there.
func TestApproxAdderDrawsLikeSample(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	tables := []*ProbTable{Identity(16)}
	for i := 0; i < 24; i++ {
		tb := randomTable(1+rng.IntN(24), rng)
		// Every third column puts all its mass on the diagonal.
		for l := rng.IntN(3); l <= tb.N; l += 3 {
			for k := range tb.P {
				tb.P[k][l] = 0
			}
			tb.P[l][l] = 1
		}
		tables = append(tables, tb)
	}
	for ti, tb := range tables {
		m := &Model{Width: tb.N, Metric: MetricMSE, Table: tb}
		seed := rng.Uint64()
		adder, err := NewApproxAdder(m, seed)
		if err != nil {
			t.Fatalf("table %d: %v", ti, err)
		}
		ref := newReferenceAdder(m, seed)
		for i := 0; i < 20000; i++ {
			l := rng.IntN(tb.N + 1)
			// The draw Add takes: one PCG word, read as its low 53 bits.
			if got, want := adder.selectC(l, adder.pcg.Uint64()<<11>>11), tb.Sample(l, ref.rng); got != want {
				t.Fatalf("table %d draw %d: Cmax | Cthmax=%d = %d, Sample drew %d", ti, i, l, got, want)
			}
		}
		mask := uint64(1)<<uint(tb.N) - 1
		for i := 0; i < 5000; i++ {
			x, y := rng.Uint64()&mask, rng.Uint64()&mask
			if i%2 == 1 {
				// Long chains: mostly propagate bits between x and y.
				y = (^x ^ rng.Uint64()&rng.Uint64()) & mask
			}
			if got, want := adder.Add(x, y), ref.Add(x, y); got != want {
				t.Fatalf("table %d add %d: Add(%#x, %#x) = %#x, want %#x", ti, i, x, y, got, want)
			}
		}
	}
}

// wordSource is a rand.Source that returns one fixed word, so a test
// can aim a Float64 draw at an exact value.
type wordSource uint64

func (w wordSource) Uint64() uint64 { return uint64(w) }

// dyadicTable returns an n-bit table whose entries are multiples of
// 1/den, so every running sum of a column is exact.
func dyadicTable(n, den int, rng *rand.Rand) *ProbTable {
	t := NewProbTable(n)
	for l := 0; l <= n; l++ {
		left := den
		for k := 0; k < l; k++ {
			w := rng.IntN(left/2 + 1)
			t.P[k][l], left = float64(w)/float64(den), left-w
		}
		t.P[l][l] = float64(left) / float64(den)
	}
	return t
}

// TestApproxAdderDrawsLikeSampleAtBoundaries aims draws exactly at every
// cumulative boundary of a dyadic table, and one ulp below it, where a
// wrong comparison would pick a neighbouring Cmax; and at every integer
// threshold of a table whose running sums are not dyadic, and one either
// side of it, where rounding c·2⁵³ the wrong way would. The 53-bit draw
// goes straight to the selection step; Sample reads the same word
// through a rand.Rand.
func TestApproxAdderDrawsLikeSampleAtBoundaries(t *testing.T) {
	const n, den = 12, 64
	rng := rand.New(rand.NewPCG(17, 19))
	check := func(tb *ProbTable, words func(a *ApproxAdder, l int) []uint64) {
		t.Helper()
		adder, err := NewApproxAdder(&Model{Width: n, Metric: MetricMSE, Table: tb}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l <= n; l++ {
			for _, word := range words(adder, l) {
				if word >= 1<<53 {
					continue // one below zero wraps
				}
				got := adder.selectC(l, word)
				if want := tb.Sample(l, rand.New(wordSource(word))); got != want {
					t.Fatalf("u = %v, Cthmax %d: drew %d, Sample drew %d", float64(word)/(1<<53), l, got, want)
				}
			}
		}
	}
	check(dyadicTable(n, den, rng), func(_ *ApproxAdder, _ int) []uint64 {
		var words []uint64
		for j := uint64(0); j < den; j++ {
			// Float64 returns the low 53 bits over 2^53: j<<47 is j/64.
			words = append(words, j<<47, j<<47-1)
		}
		return words
	})
	check(randomTable(n, rng), func(a *ApproxAdder, l int) []uint64 {
		var words []uint64
		for _, th := range a.thresh[l] {
			words = append(words, th-1, th, th+1)
		}
		return words
	})
}

// TestApproxAdderKeepExit aims the draw of one add at each column's keep
// threshold and one either side of it, for a dyadic and a non-dyadic
// table, on an operand pair whose Cthmax is that column. The add equals
// LimitedAdd at the Cmax ProbTable.Sample picks for the same word: the
// exact sum at and above the threshold, a truncated one below it.
func TestApproxAdderKeepExit(t *testing.T) {
	const n = 12
	rng := rand.New(rand.NewPCG(23, 29))
	for _, tb := range []*ProbTable{dyadicTable(n, 64, rng), randomTable(n, rng)} {
		adder, err := NewApproxAdder(&Model{Width: n, Metric: MetricMSE, Table: tb}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l <= n; l++ {
			// A carry born at bit 0 rides bits 1 … l−1 and enters bit l,
			// where neither operand is set: Cthmax l (0 for l = 0).
			a, b := uint64(1)<<l-1, uint64(min(l, 1))
			if cth := carry.Cthmax(a, b, n); cth != l {
				t.Fatalf("Cthmax(%#x, %#x) = %d, want %d", a, b, cth, l)
			}
			keep := adder.keep[l]
			for _, m := range []uint64{keep - 1, keep, keep + 1} {
				if m >= 1<<53 {
					continue // one below zero wraps
				}
				cmax := tb.Sample(l, rand.New(wordSource(m)))
				if got, want := adder.addDraw(a, b, m), carry.LimitedAdd(a, b, n, cmax); got != want {
					t.Fatalf("Cthmax %d, draw %d (keep %d): add = %#x, LimitedAdd at Sample's Cmax %d = %#x", l, m, keep, got, cmax, want)
				}
			}
		}
	}
}

// checkAdderAgainstReference runs n adds of operand pairs derived from
// (a, b) through a fresh ApproxAdder and the reference, every other pair
// made mostly of propagate bits so long chains meet truncating draws.
// It also checks that every sum fits the width plus its carry out.
func checkAdderAgainstReference(m *Model, seed, a, b uint64, n int) error {
	adder, err := NewApproxAdder(m, seed)
	if err != nil {
		return err
	}
	ref := newReferenceAdder(m, seed)
	for i := 0; i < n; i++ {
		x, y := a, b
		if i%2 == 1 {
			y = ^a ^ b&(b>>7)
		}
		got, want := adder.Add(x, y), ref.Add(x, y)
		if got != want {
			return fmt.Errorf("width %d seed %d add %d: Add(%#x, %#x) = %#x, reference %#x", m.Width, seed, i, x, y, got, want)
		}
		if got>>uint(m.Width+1) != 0 {
			return fmt.Errorf("width %d add %d: Add(%#x, %#x) = %#x overflows the carry out", m.Width, i, x, y, got)
		}
		a, b = bits.RotateLeft64(a, 13)^b, bits.RotateLeft64(b, 29)+a
	}
	return nil
}

// fuzzTable builds a width-bit table from weight bytes taken in turn,
// column by column: each column's weights over rows k ≤ l, divided by
// their sum; a column whose weights are all zero (or no weights at all)
// is exact.
func fuzzTable(width int, weights []byte) *ProbTable {
	t := NewProbTable(width)
	i := 0
	for l := 0; l <= width; l++ {
		var sum float64
		for k := 0; k <= l && len(weights) > 0; k++ {
			t.P[k][l] = float64(weights[i%len(weights)])
			sum += t.P[k][l]
			i++
		}
		if sum == 0 {
			t.P[l][l], sum = 1, 1
		}
		for k := 0; k <= l; k++ {
			t.P[k][l] /= sum
		}
	}
	return t
}

// FuzzApproxAdderMatchesReference checks ApproxAdder against the
// reference replay at fuzzed widths 1–63, tables, seeds and operands.
// Its seed corpus is testdata/fuzz/FuzzApproxAdderMatchesReference.
func FuzzApproxAdderMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, w uint8, weights []byte, seed, a, b uint64) {
		width := int(w%carry.MaxWidth) + 1
		m := &Model{Width: width, Metric: MetricMSE, Table: fuzzTable(width, weights)}
		if err := checkAdderAgainstReference(m, seed, a, b, 16); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzReadModel feeds arbitrary bytes to ReadModel: it never panics, and
// any model it accepts builds an ApproxAdder whose adds return within
// the width plus its carry out. Its seed corpus is
// testdata/fuzz/FuzzReadModel.
func FuzzReadModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		adder, err := NewApproxAdder(m, 1)
		if err != nil {
			t.Fatalf("ReadModel accepted a model NewApproxAdder rejects: %v", err)
		}
		ones := ^uint64(0)
		for _, op := range [][2]uint64{{0, 0}, {ones, 1}, {ones, ones}, {ones >> 1, 1}, {0x5555555555555555, 0xaaaaaaaaaaaaaaab}} {
			if got := adder.Add(op[0], op[1]); got>>uint(m.Width+1) != 0 {
				t.Fatalf("width %d: Add(%#x, %#x) = %#x overflows the carry out", m.Width, op[0], op[1], got)
			}
		}
	})
}

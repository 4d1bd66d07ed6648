package apps

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/patterns"
)

// opaqueAdder hides an adder's concrete type, so NewArith calls it
// through the core.HardwareAdder interface, one add at a time.
type opaqueAdder struct{ core.HardwareAdder }

// spreadTable returns a Word-bit table whose every column puts random
// mass on each Cmax ≤ Cthmax, so a draw out of step changes a sum.
func spreadTable(seed uint64) *core.ProbTable {
	rng := rand.New(rand.NewPCG(seed, 7))
	t := core.NewProbTable(Word)
	for l := 0; l <= Word; l++ {
		var sum float64
		for k := 0; k <= l; k++ {
			t.P[k][l] = 0.01 + rng.Float64()
			sum += t.P[k][l]
		}
		for k := 0; k <= l; k++ {
			t.P[k][l] /= sum
		}
	}
	return t
}

// arithCase builds pairs of identically built adders: newAdder returns a
// fresh one each call, since an approximate adder's draws are state.
type arithCase struct {
	name     string
	newAdder func(t *testing.T) core.HardwareAdder
}

func arithCases(t *testing.T) []arithCase {
	gen, err := patterns.NewUniform(Word, 3)
	if err != nil {
		t.Fatal(err)
	}
	trained, err := core.TrainModel(lossyAdder{limit: 6}, gen, 500, core.MetricMSE, "test")
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]*core.Model{
		"trained":  trained,
		"identity": {Width: Word, Metric: core.MetricMSE, Table: core.Identity(Word)},
		"spread1":  {Width: Word, Metric: core.MetricMSE, Table: spreadTable(1)},
		"spread2":  {Width: Word, Metric: core.MetricMSE, Table: spreadTable(2)},
	}
	cases := []arithCase{
		{"exact", func(*testing.T) core.HardwareAdder { return core.ExactAdder{W: Word} }},
		{"lossy6", func(*testing.T) core.HardwareAdder { return lossyAdder{limit: 6} }},
		{"lossy2", func(*testing.T) core.HardwareAdder { return lossyAdder{limit: 2} }},
	}
	for _, name := range []string{"trained", "identity", "spread1", "spread2"} {
		for _, seed := range []uint64{1, 0xabcd} {
			m := models[name]
			cases = append(cases, arithCase{fmt.Sprintf("approx-%s-%d", name, seed), func(t *testing.T) core.HardwareAdder {
				a, err := core.NewApproxAdder(m, seed)
				if err != nil {
					t.Fatal(err)
				}
				return a
			}})
		}
	}
	return cases
}

// arithPair returns an Arith over a fresh adder as NewArith resolves it,
// and one over an identical adder forced onto the interface path, with
// the two adders.
func arithPair(t *testing.T, c arithCase) (resolved, generic *Arith, ra, ga core.HardwareAdder) {
	t.Helper()
	ra, ga = c.newAdder(t), c.newAdder(t)
	resolved, err := NewArith(ra)
	if err != nil {
		t.Fatal(err)
	}
	generic, err = NewArith(opaqueAdder{ga})
	if err != nil {
		t.Fatal(err)
	}
	return resolved, generic, ra, ga
}

// checkDrawsInStep fails unless the two adders, if approximate, have
// consumed the same number of draws: from here on both must draw the
// same carry limits for a full-length chain.
func checkDrawsInStep(t *testing.T, ra, ga core.HardwareAdder) {
	t.Helper()
	a, ok := ra.(*core.ApproxAdder)
	if !ok {
		return
	}
	b := ga.(*core.ApproxAdder)
	for i := 0; i < 64; i++ {
		if x, y := a.Add(wordMask, 1), b.Add(wordMask, 1); x != y {
			t.Fatalf("draw %d after the run: resolved adder %#x, interface path %#x", i, x, y)
		}
	}
}

// TestArithResolvedMatchesInterface: every Arith operation on the adder
// NewArith resolves (native exact arithmetic for ExactAdder) returns what
// the interface path returns for an identical adder, on operands wider
// than Word, and consumes the same draws.
func TestArithResolvedMatchesInterface(t *testing.T) {
	for _, c := range arithCases(t) {
		t.Run(c.name, func(t *testing.T) {
			res, gen, ra, ga := arithPair(t, c)
			rng := rand.New(rand.NewPCG(5, 6))
			operand := func() uint64 {
				switch rng.IntN(3) {
				case 0:
					return rng.Uint64() // far above Word bits
				case 1:
					return rng.Uint64() & wordMask
				}
				return rng.Uint64() & 0xff
			}
			check := func(op string, got, want uint64) {
				t.Helper()
				if got != want {
					t.Fatalf("%s: resolved %#x, interface path %#x", op, got, want)
				}
			}
			for i := 0; i < 3000; i++ {
				a, b := operand(), operand()
				check(fmt.Sprintf("Add(%#x, %#x)", a, b), res.Add(a, b), gen.Add(a, b))
				check(fmt.Sprintf("Sub(%#x, %#x)", a, b), res.Sub(a, b), gen.Sub(a, b))
				check(fmt.Sprintf("Abs(%#x)", a), res.Abs(a), gen.Abs(a))
				k := rng.IntN(20)
				check(fmt.Sprintf("MulPow2(%#x, %d)", a, k), res.MulPow2(a, k), gen.MulPow2(a, k))
				mc := rng.IntN(70)
				check(fmt.Sprintf("MulSmall(%#x, %d)", a, mc), res.MulSmall(a, mc), gen.MulSmall(a, mc))
				// Lengths 0 and 1, within the stack buffer, and beyond it.
				vals := make([]uint64, rng.IntN(24))
				for j := range vals {
					vals[j] = operand()
				}
				orig := append([]uint64(nil), vals...)
				check(fmt.Sprintf("SumTree(%#x)", vals), res.SumTree(vals), gen.SumTree(vals))
				if !slices.Equal(vals, orig) {
					t.Fatalf("SumTree modified its operands: %#x, was %#x", vals, orig)
				}
			}
			for _, v := range []uint64{0, 7, wordMask, 1 << 40} {
				check(fmt.Sprintf("SumTree([%#x])", v), res.SumTree([]uint64{v}), v)
			}
			checkDrawsInStep(t, ra, ga)
		})
	}
}

// TestKernelsResolvedMatchInterface: the kernels and every catalog
// kernel's RunRep give identical results on the resolved Arith and on
// the interface path, and leave an approximate adder's draws in step.
func TestKernelsResolvedMatchInterface(t *testing.T) {
	img := Synthetic(24, 20, 3)
	sig := TwoTone(300, 4)
	points, _ := ThreeBlobs(90, 5)
	for _, c := range arithCases(t) {
		t.Run(c.name, func(t *testing.T) {
			res, gen, ra, ga := arithPair(t, c)
			if got, want := BinomialFIR().Apply(sig, res), BinomialFIR().Apply(sig, gen); !reflect.DeepEqual(got, want) {
				t.Fatal("FIR differs")
			}
			if got, want := GaussianBlur3(img, res), GaussianBlur3(img, gen); !reflect.DeepEqual(got, want) {
				t.Fatal("blur differs")
			}
			if got, want := Sobel(img, res), Sobel(img, gen); !reflect.DeepEqual(got, want) {
				t.Fatal("Sobel differs")
			}
			km := KMeans{K: 3, Iters: 4}
			gc, ga2 := km.Clusters(points, res, 9)
			wc, wa := km.Clusters(points, gen, 9)
			if !reflect.DeepEqual(gc, wc) || !reflect.DeepEqual(ga2, wa) {
				t.Fatal("k-means differs")
			}
			if got, want := DotProduct(sig[:40], sig[40:80], res), DotProduct(sig[:40], sig[40:80], gen); got != want {
				t.Fatalf("dot product: resolved %#x, interface path %#x", got, want)
			}
			for _, k := range MCKernels() {
				got, err := k.RunRep(17, res)
				if err != nil {
					t.Fatal(err)
				}
				want, err := k.RunRep(17, gen)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s rep: resolved %+v, interface path %+v", k.Name, got, want)
				}
			}
			checkDrawsInStep(t, ra, ga)
		})
	}
}

// TestMulSmallRejectsNegativeConstant: a negative constant has no
// shift-and-add network; every adder path panics rather than looping or
// answering.
func TestMulSmallRejectsNegativeConstant(t *testing.T) {
	approx, err := core.NewApproxAdder(&core.Model{Width: Word, Metric: core.MetricMSE, Table: spreadTable(3)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []core.HardwareAdder{core.ExactAdder{W: Word}, approx, lossyAdder{limit: 6}} {
		ar, err := NewArith(a)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "negative constant -3") {
					t.Errorf("%T: MulSmall(5, -3) recovered %q, want a negative-constant panic", a, msg)
				}
			}()
			ar.MulSmall(5, -3)
		}()
	}
}

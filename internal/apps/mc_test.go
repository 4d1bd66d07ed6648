package apps

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/patterns"
)

// noisyArith builds an Arith over a model-sampled approximate adder
// trained against a carry-truncating oracle — the same construction the
// Monte Carlo engine uses, minus the gate-level calibration.
func noisyArith(t *testing.T, seed uint64) *Arith {
	t.Helper()
	gen, err := patterns.NewUniform(Word, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.TrainModel(lossyAdder{limit: 6}, gen, 500, core.MetricMSE, "test")
	if err != nil {
		t.Fatal(err)
	}
	approx, err := core.NewApproxAdder(m, seed)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := NewArith(approx)
	if err != nil {
		t.Fatal(err)
	}
	return ar
}

// TestRunRepDeterministic pins the Monte Carlo reproducibility contract
// at the kernel level: every catalog kernel, run twice from the same rep
// seed with identically seeded adders, produces identical results —
// there is no ambient randomness anywhere in a rep.
func TestRunRepDeterministic(t *testing.T) {
	for _, k := range MCKernels() {
		t.Run(k.Name, func(t *testing.T) {
			const seed = 0xabcd
			a, err := k.RunRep(seed, noisyArith(t, seed))
			if err != nil {
				t.Fatal(err)
			}
			b, err := k.RunRep(seed, noisyArith(t, seed))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
			}
			if a.Outputs == 0 {
				t.Fatal("rep produced no outputs")
			}
			if len(a.Hist) != MCHistBins {
				t.Fatalf("histogram has %d bins, want %d", len(a.Hist), MCHistBins)
			}
			var mass int64
			for _, n := range a.Hist {
				mass += int64(n)
			}
			if mass != a.Outputs {
				t.Fatalf("histogram mass %d != outputs %d", mass, a.Outputs)
			}
			// A different rep seed must synthesize a different input
			// instance (and so, with a lossy adder, a different census).
			c, err := k.RunRep(seed+1, noisyArith(t, seed+1))
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(a, c) {
				t.Fatal("different seeds produced identical results")
			}
		})
	}
}

// TestRunRepExactIsLossless sanity-checks the reference path: on an
// exact adder every kernel reports zero errors and a capped metric.
func TestRunRepExactIsLossless(t *testing.T) {
	for _, k := range MCKernels() {
		t.Run(k.Name, func(t *testing.T) {
			res, err := k.RunRep(99, exactArith(t))
			if err != nil {
				t.Fatal(err)
			}
			if res.Errors != 0 {
				t.Fatalf("exact rep reported %d errors", res.Errors)
			}
			if k.Metric == "rmse" {
				if res.Metric != 0 {
					t.Fatalf("exact rmse %v", res.Metric)
				}
			} else if res.Metric != core.SNRCap {
				t.Fatalf("exact %s %v, want cap %v", k.Metric, res.Metric, core.SNRCap)
			}
		})
	}
}

// TestKMeansRepAllocs bounds a kmeans rep's allocations: its Lloyd
// iterations reuse one member buffer and the Arith's SumTree buffer
// instead of regrowing a member list per centroid per iteration.
func TestKMeansRepAllocs(t *testing.T) {
	k, ok := MCKernelByName("kmeans")
	if !ok {
		t.Fatal("no kmeans kernel")
	}
	ar := noisyArith(t, 5)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := k.RunRep(7, ar); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20 {
		t.Fatalf("kmeans rep allocates %.0f times, want ≤ 20", allocs)
	}
}

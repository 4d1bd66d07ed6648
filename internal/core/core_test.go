package core

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/carry"
	"repro/internal/patterns"
)

// flakyAdder is a synthetic faulty oracle: it truncates every carry chain
// at a fixed limit — the idealized hardware the model family can represent
// exactly.
type flakyAdder struct {
	width int
	limit int
}

func (f flakyAdder) Width() int { return f.width }
func (f flakyAdder) Add(a, b uint64) uint64 {
	return carry.LimitedAdd(a, b, f.width, f.limit)
}

func TestMetricStrings(t *testing.T) {
	if MetricMSE.String() != "MSE" ||
		MetricHamming.String() != "Hamming" ||
		MetricWeightedHamming.String() != "WeightedHamming" {
		t.Fatal("metric names wrong")
	}
	if Metric(9).String() == "" {
		t.Fatal("unknown metric must format")
	}
	if len(Metrics()) != 3 {
		t.Fatal("Metrics() must list 3 entries")
	}
}

func TestMetricDistanceIdentities(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := uint64(a), uint64(b)
		for _, m := range Metrics() {
			if m.Distance(x, x, 17) != 0 {
				return false
			}
			if x != y && m.Distance(x, y, 17) <= 0 {
				return false
			}
			if m.Distance(x, y, 17) != m.Distance(y, x, 17) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIdentityTableValid(t *testing.T) {
	tab := Identity(8)
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	for l := 0; l <= 8; l++ {
		if tab.ExactnessProb(l) != 1 {
			t.Fatalf("identity P(%d|%d) != 1", l, l)
		}
		if tab.Mean(l) != float64(l) {
			t.Fatalf("identity mean(%d) = %v", l, tab.Mean(l))
		}
	}
}

func TestValidateCatchesBadTables(t *testing.T) {
	tab := Identity(4)
	tab.P[0][0] = 0.5 // column no longer sums to 1
	if err := tab.Validate(); err == nil {
		t.Fatal("bad column sum accepted")
	}
	tab = Identity(4)
	tab.P[3][2] = 0.5 // above diagonal
	tab.P[2][2] = 0.5
	if err := tab.Validate(); err == nil {
		t.Fatal("above-diagonal mass accepted")
	}
	tab = Identity(4)
	tab.P[1][1] = -1
	tab.P[0][1] = 2
	if err := tab.Validate(); err == nil {
		t.Fatal("negative entry accepted")
	}
	if err := (&ProbTable{N: 0}).Validate(); err == nil {
		t.Fatal("degenerate table accepted")
	}
}

func TestSampleRespectsDistribution(t *testing.T) {
	tab := NewProbTable(4)
	// Column 3: Cmax = 1 with p=0.3, 3 with p=0.7.
	tab.P[1][3] = 0.3
	tab.P[3][3] = 0.7
	for l := 0; l <= 4; l++ {
		if l != 3 {
			tab.P[l][l] = 1
		}
	}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	const n = 50000
	counts := map[int]int{}
	for i := 0; i < n; i++ {
		counts[tab.Sample(3, rng)]++
	}
	if got := float64(counts[1]) / n; math.Abs(got-0.3) > 0.01 {
		t.Fatalf("P(1|3) sampled at %v", got)
	}
	if got := float64(counts[3]) / n; math.Abs(got-0.7) > 0.01 {
		t.Fatalf("P(3|3) sampled at %v", got)
	}
	if counts[0]+counts[2]+counts[4] != 0 {
		t.Fatalf("sampled zero-probability entries: %v", counts)
	}
	// Out-of-range conditioning clamps.
	if v := tab.Sample(-1, rng); v != 0 {
		t.Fatalf("Sample(-1) = %d", v)
	}
	if v := tab.Sample(99, rng); v < 0 || v > 4 {
		t.Fatalf("Sample(99) = %d", v)
	}
}

func TestTrainOnPerfectHardwareGivesIdentity(t *testing.T) {
	// A perfect adder must train to the identity table under every
	// metric: the observed best C is always Cthmax (ties resolve to the
	// smallest C achieving distance 0, and only C = Cthmax does so
	// whenever a chain matters... for chains that don't affect the
	// output, any smaller C also achieves 0, so the diagonal mass may
	// spread *below* — verify exactness of the *behaviour*, not the
	// table).
	hw := ExactAdder{W: 8}
	gen, _ := patterns.NewUniform(8, 42)
	for _, m := range Metrics() {
		tab, err := Train(hw, gen, 4000, m)
		if err != nil {
			t.Fatal(err)
		}
		model := &Model{Width: 8, Metric: m, Table: tab}
		approx, err := NewApproxAdder(model, 7)
		if err != nil {
			t.Fatal(err)
		}
		// The sampled adder must reproduce the exact sum for every pair:
		// any C the trainer put mass on yields the same output as the
		// hardware did for that Cthmax class.
		gen2, _ := patterns.NewUniform(8, 43)
		for i := 0; i < 2000; i++ {
			a, b := gen2.Next()
			if approx.Add(a, b) != carry.ExactAdd(a, b, 8) {
				t.Fatalf("metric %s: model of perfect hardware is not exact for (%d,%d)", m, a, b)
			}
		}
		gen.Reset()
	}
}

func TestTrainRecoversTruncationLimit(t *testing.T) {
	// Hardware that truncates chains at 3 must yield a model that behaves
	// identically (for chains ≤ 3 any consistent C works; for longer
	// chains the trainer must find C = 3).
	hw := flakyAdder{width: 8, limit: 3}
	gen, _ := patterns.NewUniform(8, 11)
	tab, err := Train(hw, gen, 8000, MetricMSE)
	if err != nil {
		t.Fatal(err)
	}
	model := &Model{Width: 8, Metric: MetricMSE, Table: tab}
	approx, _ := NewApproxAdder(model, 3)
	gen2, _ := patterns.NewUniform(8, 12)
	for i := 0; i < 4000; i++ {
		a, b := gen2.Next()
		if got, want := approx.Add(a, b), hw.Add(a, b); got != want {
			t.Fatalf("model(%d,%d) = %#x, hardware %#x", a, b, got, want)
		}
	}
	// Long-chain columns concentrate exactly on C = 3.
	for l := 4; l <= 8; l++ {
		if tab.P[3][l] < 0.999 {
			t.Fatalf("P(3|%d) = %v, want ≈1 (table:\n%s)", l, tab.P[3][l], tab)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	hw := ExactAdder{W: 8}
	gen, _ := patterns.NewUniform(4, 1)
	if _, err := Train(hw, gen, 100, MetricMSE); err == nil {
		t.Fatal("width mismatch accepted")
	}
	gen8, _ := patterns.NewUniform(8, 1)
	if _, err := Train(hw, gen8, 0, MetricMSE); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestModelValidate(t *testing.T) {
	good := &Model{Width: 4, Metric: MetricHamming, Table: Identity(4)}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Model{
		{Width: 0, Metric: MetricMSE, Table: Identity(4)},
		{Width: 4, Metric: Metric(9), Table: Identity(4)},
		{Width: 4, Metric: MetricMSE, Table: nil},
		{Width: 8, Metric: MetricMSE, Table: Identity(4)},
		// LimitedAdd stops at carry.MaxWidth = 63.
		{Width: 64, Metric: MetricMSE, Table: Identity(64)},
		{Width: 70, Metric: MetricMSE, Table: Identity(70)},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}
}

func TestApproxAdderDeterministicPerSeed(t *testing.T) {
	hw := flakyAdder{width: 8, limit: 2}
	gen, _ := patterns.NewUniform(8, 5)
	model, err := TrainModel(hw, gen, 3000, MetricHamming, "test")
	if err != nil {
		t.Fatal(err)
	}
	a1, _ := NewApproxAdder(model, 99)
	a2, _ := NewApproxAdder(model, 99)
	gen2, _ := patterns.NewUniform(8, 6)
	for i := 0; i < 500; i++ {
		x, y := gen2.Next()
		if a1.Add(x, y) != a2.Add(x, y) {
			t.Fatal("same-seed adders diverged")
		}
	}
}

func TestEvaluatePerfectModel(t *testing.T) {
	hw := flakyAdder{width: 8, limit: 3}
	gen, _ := patterns.NewUniform(8, 21)
	model, err := TrainModel(hw, gen, 8000, MetricMSE, "")
	if err != nil {
		t.Fatal(err)
	}
	approx, _ := NewApproxAdder(model, 4)
	genEval, _ := patterns.NewUniform(8, 22)
	ev, err := Evaluate(hw, approx, genEval, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(ev.SNRdB, 1) {
		t.Fatalf("deterministic truncation should be modeled exactly; SNR = %v", ev.SNRdB)
	}
	if ev.NormalizedHamming != 0 {
		t.Fatalf("NormalizedHamming = %v", ev.NormalizedHamming)
	}
	if ev.BERModel != ev.BERHardware {
		t.Fatalf("model BER %v != hardware BER %v", ev.BERModel, ev.BERHardware)
	}
}

func TestEvaluateErrors(t *testing.T) {
	hw := ExactAdder{W: 8}
	model := &Model{Width: 4, Metric: MetricMSE, Table: Identity(4)}
	approx, _ := NewApproxAdder(model, 1)
	gen, _ := patterns.NewUniform(8, 1)
	if _, err := Evaluate(hw, approx, gen, 10); err == nil {
		t.Fatal("width mismatch accepted")
	}
	model8 := &Model{Width: 8, Metric: MetricMSE, Table: Identity(8)}
	approx8, _ := NewApproxAdder(model8, 1)
	gen4, _ := patterns.NewUniform(4, 1)
	if _, err := Evaluate(hw, approx8, gen4, 10); err == nil {
		t.Fatal("generator width mismatch accepted")
	}
}

func TestModelJSONRoundTrip(t *testing.T) {
	hw := flakyAdder{width: 6, limit: 2}
	gen, _ := patterns.NewUniform(6, 31)
	model, err := TrainModel(hw, gen, 3000, MetricWeightedHamming, "0.28,0.5,±2")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteModel(&buf, model); err != nil {
		t.Fatal(err)
	}
	back, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Width != model.Width || back.Metric != model.Metric || back.Label != model.Label {
		t.Fatalf("round trip mangled header: %+v", back)
	}
	for k := 0; k <= 6; k++ {
		for l := 0; l <= 6; l++ {
			if math.Abs(back.Table.P[k][l]-model.Table.P[k][l]) > 1e-12 {
				t.Fatalf("P(%d|%d) changed in round trip", k, l)
			}
		}
	}
}

func TestReadModelRejectsInvalid(t *testing.T) {
	if _, err := ReadModel(bytes.NewBufferString(`{"width":0}`)); err == nil {
		t.Fatal("invalid model accepted")
	}
	if _, err := ReadModel(bytes.NewBufferString(`{`)); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	if _, err := ReadModel(bytes.NewBufferString(`{"width":4,"metric":"Nope","table":{"n":4,"p":[]}}`)); err == nil {
		t.Fatal("unknown metric accepted")
	}
}

func TestTableString(t *testing.T) {
	s := Identity(2).String()
	if len(s) == 0 {
		t.Fatal("empty table rendering")
	}
}

func TestTrainedColumnsAreDistributions(t *testing.T) {
	f := func(limit uint8) bool {
		l := int(limit) % 9
		hw := flakyAdder{width: 8, limit: l}
		gen, _ := patterns.NewUniform(8, uint64(limit)+100)
		tab, err := Train(hw, gen, 1500, MetricHamming)
		if err != nil {
			return false
		}
		return tab.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

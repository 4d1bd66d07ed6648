package charz

import (
	"math"
	"testing"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/fdsoi"
	"repro/internal/patterns"
	"repro/internal/synth"
	"repro/internal/triad"
)

// smallCfg keeps test runtimes low: a 8-bit RCA with a few hundred
// patterns still shows every qualitative effect.
func smallCfg() Config {
	return Config{
		Arch:     synth.ArchRCA,
		Width:    8,
		Patterns: 400,
		Seed:     1,
	}
}

func TestRunProducesFullSweep(t *testing.T) {
	res, err := Run(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Triads) != 43 {
		t.Fatalf("triads = %d, want 43", len(res.Triads))
	}
	if res.NominalEnergyFJ <= 0 {
		t.Fatal("nominal energy must be positive")
	}
	// Nominal triad: no errors, zero efficiency (it is the baseline).
	nom := res.Triads[0]
	if nom.BER() != 0 {
		t.Fatalf("nominal BER = %v", nom.BER())
	}
	if nom.Efficiency != 0 {
		t.Fatalf("nominal efficiency = %v", nom.Efficiency)
	}
	// The sweep must contain both error-free and erroneous triads, and
	// some triad must save substantial energy.
	zero, nonzero, bigSave := 0, 0, false
	for _, tr := range res.Triads {
		if tr.BER() == 0 {
			zero++
		} else {
			nonzero++
		}
		if tr.Efficiency > 0.5 {
			bigSave = true
		}
		if tr.BER() < 0 || tr.BER() > 1 {
			t.Fatalf("BER out of range: %v", tr.BER())
		}
	}
	if zero < 5 || nonzero < 5 {
		t.Fatalf("unexpected error split: %d zero, %d nonzero", zero, nonzero)
	}
	if !bigSave {
		t.Fatal("no triad saved >50% energy")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Triads {
		if a.Triads[i].BER() != b.Triads[i].BER() {
			t.Fatalf("BER differs at triad %d", i)
		}
		if a.Triads[i].EnergyPerOpFJ != b.Triads[i].EnergyPerOpFJ {
			t.Fatalf("energy differs at triad %d", i)
		}
	}
}

func TestRunValidation(t *testing.T) {
	bad := smallCfg()
	bad.Width = 0
	if _, err := Run(bad); err == nil {
		t.Fatal("width 0 accepted")
	}
	bad = smallCfg()
	bad.Patterns = 0
	if _, err := Run(bad); err == nil {
		t.Fatal("0 patterns accepted")
	}
	bad = smallCfg()
	bad.PropagateP = 2
	if _, err := Run(bad); err == nil {
		t.Fatal("propagate probability 2 accepted")
	}
	bad = smallCfg()
	bad.PropagateP = math.NaN()
	if _, err := Run(bad); err == nil {
		t.Fatal("propagate probability NaN accepted")
	}
}

// TestSortedIndicesOrdering orders a sweep's triads the way every
// operator result does (its SortedIdx, which vos.Operator.Fig8 follows):
// the paper's Fig. 8 x-axis, ascending BER with ties by ascending energy.
func TestSortedIndicesOrdering(t *testing.T) {
	res, err := Run(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	idx := triad.SortByBERThenEnergy(len(res.Triads),
		func(i int) float64 { return res.Triads[i].BER() },
		func(i int) float64 { return res.Triads[i].EnergyPerOpFJ })
	if len(idx) != len(res.Triads) {
		t.Fatal("index length mismatch")
	}
	for i := 1; i < len(idx); i++ {
		prev, cur := res.Triads[idx[i-1]], res.Triads[idx[i]]
		if cur.BER() < prev.BER() {
			t.Fatal("not sorted by BER")
		}
		if cur.BER() == prev.BER() && cur.EnergyPerOpFJ < prev.EnergyPerOpFJ {
			t.Fatal("ties not sorted by energy")
		}
	}
}

func TestEnergyDecreasesWithVddAtFixedClock(t *testing.T) {
	res, err := Run(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Among triads sharing (Tclk, Vbb=0), energy must drop with Vdd.
	byVdd := map[float64]float64{}
	tclk := 0.0
	for _, tr := range res.Triads[1:] {
		if tclk == 0 {
			tclk = tr.Triad.Tclk
		}
		if tr.Triad.Tclk == tclk && tr.Triad.Vbb == 0 {
			byVdd[tr.Triad.Vdd] = tr.EnergyPerOpFJ
		}
	}
	if len(byVdd) < 5 {
		t.Fatalf("unexpected group size %d", len(byVdd))
	}
	for vdd, e := range byVdd {
		for vdd2, e2 := range byVdd {
			if vdd < vdd2 && e >= e2 {
				t.Fatalf("energy at %.1fV (%.1f) not below %.1fV (%.1f)", vdd, e, vdd2, e2)
			}
		}
	}
}

func TestFBBTriadsDominatePareto(t *testing.T) {
	// The paper: body-biased triads keep BER at 0 deeper into the Vdd
	// sweep than unbiased ones at the synthesis clock.
	res, err := Run(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	minZeroVddFBB, minZeroVddNoBias := 2.0, 2.0
	synthClk := res.Report.CriticalPath
	for _, tr := range res.Triads[1:] {
		if math.Abs(tr.Triad.Tclk-round3(synthClk)) > 1e-9 || tr.BER() != 0 {
			continue
		}
		if tr.Triad.Vbb > 0 && tr.Triad.Vdd < minZeroVddFBB {
			minZeroVddFBB = tr.Triad.Vdd
		}
		if tr.Triad.Vbb == 0 && tr.Triad.Vdd < minZeroVddNoBias {
			minZeroVddNoBias = tr.Triad.Vdd
		}
	}
	if minZeroVddFBB >= minZeroVddNoBias {
		t.Fatalf("FBB zero-BER floor %.2f not below unbiased %.2f", minZeroVddFBB, minZeroVddNoBias)
	}
}

func round3(f float64) float64 { return math.Round(f*1000) / 1000 }

// TestFig5MidBitsFailHardest runs the Fig. 5 points — the synthesis
// clock with no body bias, at 0.8 and 0.5 V.
func TestFig5MidBitsFailHardest(t *testing.T) {
	cfg := smallCfg()
	prep, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp := prep.Report.CriticalPath
	cfg.Triads = []triad.Triad{{Tclk: cp, Vdd: 0.8}, {Tclk: cp, Vdd: 0.5}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Triads
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	// Lower Vdd must have (weakly) higher total BER.
	if pts[1].BER() <= pts[0].BER() {
		t.Fatalf("BER at 0.5V (%v) not above 0.8V (%v)", pts[1].BER(), pts[0].BER())
	}
	// At deep over-scaling, some middle bit must exceed both LSB and the
	// carry-out bit error probabilities (the paper's key observation).
	pb := pts[1].Acc.PerBitErrorProb()
	maxMid := 0.0
	for i := 2; i < len(pb)-1; i++ {
		if pb[i] > maxMid {
			maxMid = pb[i]
		}
	}
	if !(maxMid > pb[0]) {
		t.Fatalf("mid-bit error %v not above LSB %v (perBit=%v)", maxMid, pb[0], pb)
	}
}

func TestEngineAdderMatchesExactAtNominal(t *testing.T) {
	cfg := smallCfg()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := NewEngineAdder(res.Netlist, cfg, res.Triads[0].Triad)
	if err != nil {
		t.Fatal(err)
	}
	if hw.Width() != 8 {
		t.Fatalf("width = %d", hw.Width())
	}
	gen, _ := patterns.NewUniform(8, 3)
	for i := 0; i < 200; i++ {
		a, b := gen.Next()
		if got := hw.Add(a, b); got != a+b {
			t.Fatalf("nominal EngineAdder(%d,%d) = %d", a, b, got)
		}
	}
	if hw.MeanEnergyFJ() <= 0 {
		t.Fatal("energy accounting missing")
	}
}

func TestEngineAdderTrainsAccurateModel(t *testing.T) {
	// End-to-end integration of the paper's pipeline on one aggressive
	// triad: simulate → train → the model must track hardware BER.
	cfg := smallCfg()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a triad with solid error rates (5%..40%).
	var pick *TriadResult
	for i := range res.Triads {
		b := res.Triads[i].BER()
		if b > 0.05 && b < 0.40 {
			pick = &res.Triads[i]
			break
		}
	}
	if pick == nil {
		t.Skip("no mid-BER triad in reduced sweep")
	}
	hw, err := NewEngineAdder(res.Netlist, cfg, pick.Triad)
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := patterns.NewUniform(8, 77)
	model, err := core.TrainModel(hw, gen, 3000, core.MetricMSE, pick.Triad.Label())
	if err != nil {
		t.Fatal(err)
	}
	approx, err := core.NewApproxAdder(model, 5)
	if err != nil {
		t.Fatal(err)
	}
	evalGen, _ := patterns.NewUniform(8, 78)
	ev, err := core.Evaluate(hw, approx, evalGen, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if ev.BERHardware == 0 {
		t.Fatal("triad unexpectedly clean during evaluation")
	}
	if ratio := ev.BERModel / ev.BERHardware; ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("model BER %.4f vs hardware %.4f (ratio %.2f) — model does not track",
			ev.BERModel, ev.BERHardware, ratio)
	}
}

func TestFig7StudyRanksMetrics(t *testing.T) {
	cfg := smallCfg()
	cfg.Patterns = 200
	// Restrict to a handful of triads to keep the test fast.
	clocks := triad.PaperClockRatios("RCA", 8).Clocks(0.27)
	cfg.Triads = []triad.Triad{
		{Tclk: clocks[0], Vdd: 1.0, Vbb: 0},
		{Tclk: clocks[1], Vdd: 0.8, Vbb: 0},
		{Tclk: clocks[1], Vdd: 0.6, Vbb: 2},
		{Tclk: clocks[1], Vdd: 0.5, Vbb: 2},
		{Tclk: clocks[1], Vdd: 0.4, Vbb: 2},
		{Tclk: clocks[2], Vdd: 0.6, Vbb: 0},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	study, err := Fig7(res, Fig7Config{TrainPatterns: 1500, EvalPatterns: 1500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if study.TriadsUsed == 0 {
		t.Fatal("no triads used")
	}
	for _, m := range core.Metrics() {
		if study.MeanSNRdB[m] <= 0 {
			t.Fatalf("metric %s: mean SNR %.1f dB not positive", m, study.MeanSNRdB[m])
		}
		if study.MeanNormHamming[m] < 0 || study.MeanNormHamming[m] > 0.5 {
			t.Fatalf("metric %s: normalized Hamming %v out of plausible range", m, study.MeanNormHamming[m])
		}
	}
}

func TestFig7Validation(t *testing.T) {
	res := &Result{}
	if _, err := Fig7(res, Fig7Config{}); err == nil {
		t.Fatal("zero pattern counts accepted")
	}
}

func TestBenchName(t *testing.T) {
	if got := smallCfg().BenchName(); got != "8-bit RCA" {
		t.Fatalf("BenchName = %q", got)
	}
}

func TestRCBackendAgreesOnClassification(t *testing.T) {
	// The RC backend must classify the same triads as clean/faulty as the
	// gate-level backend on a reduced sweep.
	clocks := triad.PaperClockRatios("RCA", 8).Clocks(0.27)
	triads := []triad.Triad{
		{Tclk: clocks[0], Vdd: 1.0, Vbb: 0}, // nominal: clean
		{Tclk: clocks[1], Vdd: 0.5, Vbb: 2}, // FBB rescue: clean
		{Tclk: clocks[1], Vdd: 0.5, Vbb: 0}, // deep VOS: faulty
		{Tclk: clocks[2], Vdd: 0.4, Vbb: 2}, // overclock + undervolt: faulty
	}
	run := func(b Backend) *Result {
		cfg := smallCfg()
		cfg.Patterns = 300
		cfg.Triads = triads
		cfg.Backend = b
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	gate, rc := run(BackendGate), run(BackendRC)
	for i := range triads {
		g, r := gate.Triads[i].BER(), rc.Triads[i].BER()
		if (g == 0) != (r == 0) {
			t.Fatalf("triad %s: gate BER %v vs rc BER %v disagree on cleanliness",
				triads[i].Label(), g, r)
		}
	}
}

func TestBackendString(t *testing.T) {
	if BackendGate.String() != "gate" || BackendRC.String() != "rc" {
		t.Fatal("backend names wrong")
	}
	if Backend(9).String() == "" {
		t.Fatal("unknown backend must format")
	}
}

func TestSweepOperatorMultiplier(t *testing.T) {
	nl, err := synth.ArrayMultiplier(synth.MultiplierConfig{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	op := MultiplierOperator(nl, 4)
	if err := op.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Arch: synth.ArchRCA, Width: 4, Patterns: 300, Seed: 1}
	set := []triad.Triad{
		{Tclk: 0.5, Vdd: 1.0, Vbb: 0},
		{Tclk: 0.2, Vdd: 0.6, Vbb: 0},
	}
	res, err := SweepOperator(op, cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	if res[0].BER() != 0 {
		t.Fatalf("nominal multiplier BER = %v", res[0].BER())
	}
	if res[1].BER() == 0 {
		t.Fatal("over-scaled multiplier produced no errors")
	}
	if res[1].EnergyPerOpFJ >= res[0].EnergyPerOpFJ {
		t.Fatal("undervolted multiplier not cheaper")
	}
	if res[0].Efficiency != 0 || res[1].Efficiency <= 0 {
		t.Fatalf("efficiency: %v, %v", res[0].Efficiency, res[1].Efficiency)
	}
}

func TestSweepOperatorAdderMatchesRun(t *testing.T) {
	// The generic operator path must agree with the adder-specific Run on
	// identical triads.
	cfg := smallCfg()
	cfg.Patterns = 300
	full, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	op := AdderOperator(full.Netlist, 8)
	set := []triad.Triad{full.Triads[0].Triad, full.Triads[30].Triad}
	res, err := SweepOperator(op, cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].BER() != full.Triads[0].BER() {
		t.Fatalf("nominal BER differs: %v vs %v", res[0].BER(), full.Triads[0].BER())
	}
	if res[1].BER() != full.Triads[30].BER() {
		t.Fatalf("triad 30 BER differs: %v vs %v", res[1].BER(), full.Triads[30].BER())
	}
}

func TestOperatorValidation(t *testing.T) {
	nl, _ := synth.RCA(synth.AdderConfig{Width: 4})
	bad := Operator{Netlist: nl}
	if err := bad.Validate(); err == nil {
		t.Fatal("incomplete operator accepted")
	}
	op := AdderOperator(nl, 4)
	op.OutWidth = 3
	if err := op.Validate(); err == nil {
		t.Fatal("wrong OutWidth accepted")
	}
	op = AdderOperator(nl, 8) // wrong width
	if err := op.Validate(); err == nil {
		t.Fatal("wrong InWidth accepted")
	}
	cfg := smallCfg()
	if _, err := SweepOperator(AdderOperator(nl, 4), cfg, nil); err == nil {
		t.Fatal("empty triad set accepted")
	}
}

func TestStreamingMode(t *testing.T) {
	// Free-running capture: error statistics stay close to the two-vector
	// protocol (late carry waves complete early in the following cycle),
	// but the deferred transitions are charged to later windows, so the
	// per-op energy is consistently higher.
	clocks := triad.PaperClockRatios("RCA", 8).Clocks(0.27)
	set := []triad.Triad{{Tclk: clocks[2], Vdd: 0.6, Vbb: 0}}
	run := func(streaming bool) *TriadResult {
		cfg := smallCfg()
		cfg.Patterns = 800
		cfg.Triads = set
		cfg.Streaming = streaming
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return &res.Triads[0]
	}
	settle, stream := run(false), run(true)
	if settle.BER() == 0 || stream.BER() == 0 {
		t.Fatal("expected erroneous operation in both protocols")
	}
	if rel := stream.BER() / settle.BER(); rel < 0.7 || rel > 1.4 {
		t.Fatalf("protocol changed BER beyond plausibility: settle %v stream %v", settle.BER(), stream.BER())
	}
	if stream.EnergyPerOpFJ <= settle.EnergyPerOpFJ {
		t.Fatalf("streaming energy %v not above settle %v (deferred transitions must be charged)",
			stream.EnergyPerOpFJ, settle.EnergyPerOpFJ)
	}
	// Streaming on the RC backend is rejected.
	cfg := smallCfg()
	cfg.Triads = set
	cfg.Streaming = true
	cfg.Backend = BackendRC
	if _, err := Run(cfg); err == nil {
		t.Fatal("streaming RC accepted")
	}
}

// TestDefaultsShared: a Config without Proc or Lib canonicalizes to one
// shared process parameter set and one shared, frozen cell library.
func TestDefaultsShared(t *testing.T) {
	a, err := smallCfg().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Config{Arch: synth.ArchBKA, Width: 16, Patterns: 1}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if a.Proc != b.Proc || a.Lib != b.Lib {
		t.Fatal("canonical Configs do not share the default Proc and Lib")
	}
	if *a.Proc != fdsoi.Default() || a.Lib.Fingerprint() != cell.Default28nmLVT().Fingerprint() {
		t.Fatal("shared defaults differ from fdsoi.Default and cell.Default28nmLVT")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add on the shared default library did not panic")
		}
	}()
	a.Lib.Add(a.Lib.MustCell(cell.INV))
}

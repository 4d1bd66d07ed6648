package synth

import (
	"testing"
	"testing/quick"

	"repro/internal/cell"
	"repro/internal/fdsoi"
	"repro/internal/netlist"
)

// addOut evaluates an adder netlist behaviorally and returns the (sum,
// cout) words.
func addOut(t *testing.T, nl *netlist.Netlist, a, b, cin uint64) (uint64, uint64) {
	t.Helper()
	st := netlist.CompileStimulus(nl)
	st.MustSet(PortA, a)
	st.MustSet(PortB, b)
	if slot, ok := st.Slot(PortCin); ok {
		st.SetSlot(slot, cin)
	}
	vals := st.Values()
	if err := nl.EvaluateInto(vals); err != nil {
		t.Fatal(err)
	}
	ps, _ := nl.OutputPort(PortSum)
	pco, _ := nl.OutputPort(PortCout)
	return netlist.PortValue(ps, vals), netlist.PortValue(pco, vals)
}

func exhaustiveAdderCheck(t *testing.T, arch Arch, width int, withCin bool) {
	t.Helper()
	nl, err := NewAdder(arch, AdderConfig{Width: width, WithCin: withCin})
	if err != nil {
		t.Fatal(err)
	}
	mask := uint64(1)<<uint(width) - 1
	cins := []uint64{0}
	if withCin {
		cins = []uint64{0, 1}
	}
	for a := uint64(0); a <= mask; a++ {
		for b := uint64(0); b <= mask; b++ {
			for _, cin := range cins {
				s, co := addOut(t, nl, a, b, cin)
				want := a + b + cin
				if s != want&mask || co != want>>uint(width) {
					t.Fatalf("%s%d(%d,%d,cin=%d) = (s=%d, co=%d), want %d",
						arch, width, a, b, cin, s, co, want)
				}
			}
		}
	}
}

func TestRCAExhaustiveSmall(t *testing.T) {
	for _, w := range []int{1, 2, 3, 4, 5} {
		exhaustiveAdderCheck(t, ArchRCA, w, false)
	}
	exhaustiveAdderCheck(t, ArchRCA, 4, true)
}

func TestBKAExhaustiveSmall(t *testing.T) {
	for _, w := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
		exhaustiveAdderCheck(t, ArchBKA, w, false)
	}
	exhaustiveAdderCheck(t, ArchBKA, 4, true)
	exhaustiveAdderCheck(t, ArchBKA, 5, true)
}

func TestAddersRandomWide(t *testing.T) {
	for _, arch := range []Arch{ArchRCA, ArchBKA} {
		for _, w := range []int{8, 16, 24, 32} {
			nl, err := NewAdder(arch, AdderConfig{Width: w})
			if err != nil {
				t.Fatal(err)
			}
			mask := uint64(1)<<uint(w) - 1
			f := func(a, b uint64) bool {
				a, b = a&mask, b&mask
				s, co := addOut(t, nl, a, b, 0)
				want := a + b
				return s == want&mask && co == want>>uint(w)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Errorf("%s%d: %v", arch, w, err)
			}
		}
	}
}

func TestRCABKAEquivalence(t *testing.T) {
	rca, _ := RCA(AdderConfig{Width: 12})
	bka, _ := BKA(AdderConfig{Width: 12})
	f := func(a, b uint64) bool {
		a &= 0xfff
		b &= 0xfff
		s1, c1 := addOut(t, rca, a, b, 0)
		s2, c2 := addOut(t, bka, a, b, 0)
		return s1 == s2 && c1 == c2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAdderRejectsBadWidth(t *testing.T) {
	if _, err := RCA(AdderConfig{Width: 0}); err == nil {
		t.Fatal("RCA accepted width 0")
	}
	if _, err := BKA(AdderConfig{Width: -3}); err == nil {
		t.Fatal("BKA accepted negative width")
	}
	if _, err := NewAdder(Arch(99), AdderConfig{Width: 8}); err == nil {
		t.Fatal("NewAdder accepted unknown arch")
	}
}

func TestArchString(t *testing.T) {
	if ArchRCA.String() != "RCA" || ArchBKA.String() != "BKA" {
		t.Fatal("arch names wrong")
	}
	if Arch(9).String() == "" {
		t.Fatal("unknown arch must still format")
	}
}

func TestBKAShallowerThanRCA(t *testing.T) {
	rca, _ := RCA(AdderConfig{Width: 16})
	bka, _ := BKA(AdderConfig{Width: 16})
	if bka.MaxLevel() >= rca.MaxLevel() {
		t.Fatalf("BKA depth %d not shallower than RCA depth %d", bka.MaxLevel(), rca.MaxLevel())
	}
}

func TestBKALargerThanRCA(t *testing.T) {
	lib := cell.Default28nmLVT()
	rca, _ := RCA(AdderConfig{Width: 8})
	bka, _ := BKA(AdderConfig{Width: 8})
	if bka.Area(lib) <= rca.Area(lib) {
		t.Fatalf("BKA area %.1f not larger than RCA %.1f (paper Table II order)",
			bka.Area(lib), rca.Area(lib))
	}
}

func mulOut(t *testing.T, nl *netlist.Netlist, a, b uint64) uint64 {
	t.Helper()
	st := netlist.CompileStimulus(nl)
	st.MustSet(PortA, a)
	st.MustSet(PortB, b)
	vals := st.Values()
	if err := nl.EvaluateInto(vals); err != nil {
		t.Fatal(err)
	}
	pp, _ := nl.OutputPort(PortProd)
	return netlist.PortValue(pp, vals)
}

func TestArrayMultiplierExhaustiveSmall(t *testing.T) {
	for _, w := range []int{1, 2, 3, 4} {
		nl, err := ArrayMultiplier(MultiplierConfig{Width: w})
		if err != nil {
			t.Fatal(err)
		}
		mask := uint64(1)<<uint(w) - 1
		for a := uint64(0); a <= mask; a++ {
			for b := uint64(0); b <= mask; b++ {
				if got := mulOut(t, nl, a, b); got != a*b {
					t.Fatalf("mul%d(%d,%d) = %d, want %d", w, a, b, got, a*b)
				}
			}
		}
	}
}

func TestArrayMultiplierRandom8(t *testing.T) {
	nl, err := ArrayMultiplier(MultiplierConfig{Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8) bool {
		return mulOut(t, nl, uint64(a), uint64(b)) == uint64(a)*uint64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestArrayMultiplierRejectsBadWidth(t *testing.T) {
	if _, err := ArrayMultiplier(MultiplierConfig{Width: 0}); err == nil {
		t.Fatal("accepted width 0")
	}
}

func TestSynthesizeReportShape(t *testing.T) {
	lib := cell.Default28nmLVT()
	proc := fdsoi.Default()
	rca8, _ := RCA(AdderConfig{Width: 8})
	rep, err := Synthesize(rca8, lib, proc, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Area <= 0 || rep.CriticalPath <= 0 || rep.TotalPower <= 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
	if rep.CriticalPath <= rep.TrueCriticalPath {
		t.Fatal("margined critical path must exceed true path")
	}
	if rep.TotalPower < rep.DynamicPower || rep.TotalPower < rep.LeakagePower {
		t.Fatal("total power must dominate components")
	}
}

// TestTableIIShape verifies the paper's Table II orderings: BKA is bigger
// and faster than RCA at equal width; 16-bit is bigger and slower than
// 8-bit at equal architecture.
func TestTableIIShape(t *testing.T) {
	lib := cell.Default28nmLVT()
	proc := fdsoi.Default()
	reports := map[string]*Report{}
	for _, tc := range []struct {
		name  string
		arch  Arch
		width int
	}{
		{"rca8", ArchRCA, 8}, {"bka8", ArchBKA, 8},
		{"rca16", ArchRCA, 16}, {"bka16", ArchBKA, 16},
	} {
		nl, err := NewAdder(tc.arch, AdderConfig{Width: tc.width})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Synthesize(nl, lib, proc, 500, 1)
		if err != nil {
			t.Fatal(err)
		}
		reports[tc.name] = rep
	}
	if !(reports["bka8"].CriticalPath < reports["rca8"].CriticalPath) {
		t.Error("BKA8 should be faster than RCA8")
	}
	if !(reports["bka16"].CriticalPath < reports["rca16"].CriticalPath) {
		t.Error("BKA16 should be faster than RCA16")
	}
	if !(reports["rca16"].CriticalPath > reports["rca8"].CriticalPath) {
		t.Error("RCA16 should be slower than RCA8")
	}
	if !(reports["rca16"].Area > reports["rca8"].Area) {
		t.Error("RCA16 should be bigger than RCA8")
	}
	// Paper Table II ballpark: RCA8 ≈ 114.7 µm², CP ≈ 0.28 ns. Allow wide
	// bands — we match shape, not silicon.
	r8 := reports["rca8"]
	if r8.Area < 80 || r8.Area > 160 {
		t.Errorf("RCA8 area %.1f µm² far from paper's 114.7", r8.Area)
	}
	if r8.CriticalPath < 0.2 || r8.CriticalPath > 0.36 {
		t.Errorf("RCA8 critical path %.3f ns far from paper's 0.28", r8.CriticalPath)
	}
	r16 := reports["rca16"]
	if r16.CriticalPath < 0.4 || r16.CriticalPath > 0.65 {
		t.Errorf("RCA16 critical path %.3f ns far from paper's 0.53", r16.CriticalPath)
	}
}

func TestMismatchedAddersStillCorrect(t *testing.T) {
	// Threshold mismatch changes timing, never logic.
	mm := fdsoi.NewMismatchSampler(0.01, 5)
	nl, err := RCA(AdderConfig{Width: 8, Mismatch: mm})
	if err != nil {
		t.Fatal(err)
	}
	s, co := addOut(t, nl, 200, 100, 0)
	if s != (300 & 0xff) {
		t.Fatalf("sum = %d", s)
	}
	if co != 300>>8 {
		t.Fatalf("cout = %d", co)
	}
}

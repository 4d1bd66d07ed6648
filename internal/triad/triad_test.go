package triad

import (
	"math"
	"testing"
)

func TestLabelFormat(t *testing.T) {
	cases := []struct {
		tr   Triad
		want string
	}{
		{Triad{Tclk: 0.28, Vdd: 0.5, Vbb: 2}, "0.28,0.5,±2"},
		{Triad{Tclk: 0.5, Vdd: 1.0, Vbb: 0}, "0.5,1,0"},
		{Triad{Tclk: 0.064, Vdd: 0.4, Vbb: 2}, "0.064,0.4,±2"},
	}
	for _, tc := range cases {
		if got := tc.tr.Label(); got != tc.want {
			t.Errorf("Label(%+v) = %q, want %q", tc.tr, got, tc.want)
		}
	}
}

func TestOperatingPoint(t *testing.T) {
	tr := Triad{Tclk: 0.28, Vdd: 0.7, Vbb: 2}
	op := tr.OperatingPoint()
	if op.Vdd != 0.7 || op.Vbb != 2 {
		t.Fatalf("op = %+v", op)
	}
}

func TestValidate(t *testing.T) {
	if err := (Triad{Tclk: 0.5, Vdd: 1}).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Triad{
		{Tclk: 0, Vdd: 1},
		{Tclk: 0.5, Vdd: 0},
		{Tclk: 0.5, Vdd: 1, Vbb: -1},
		{Tclk: math.NaN(), Vdd: 1},
		{Tclk: 0.5, Vdd: math.NaN()},
		{Tclk: 0.5, Vdd: 1, Vbb: math.NaN()},
		{Tclk: math.Inf(1), Vdd: 1},
		{Tclk: 0.5, Vdd: math.Inf(1)},
		{Tclk: 0.5, Vdd: 1, Vbb: math.Inf(1)},
	}
	for i, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSetHas43Triads(t *testing.T) {
	// The paper's sweep: 1 nominal + 3 clocks × 7 Vdd × 2 Vbb = 43.
	clocks := PaperClockRatios("RCA", 8).Clocks(0.28)
	set := Set(DefaultSweep(clocks))
	if len(set) != 43 {
		t.Fatalf("triad set size = %d, want 43", len(set))
	}
	// All triads valid and distinct.
	seen := map[string]bool{}
	for _, tr := range set {
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		l := tr.Label()
		if seen[l] {
			t.Fatalf("duplicate triad %s", l)
		}
		seen[l] = true
	}
	// Nominal first: relaxed clock, 1.0 V, no bias.
	nom := Nominal(set)
	if nom.Vdd != 1.0 || nom.Vbb != 0 || nom.Tclk != clocks[0] {
		t.Fatalf("nominal = %+v", nom)
	}
}

func TestPaperClockRatiosKnownRows(t *testing.T) {
	// 8-bit RCA at CP=0.28 must reproduce the paper's Table III row
	// (0.5, 0.28, 0.19, 0.13) to rounding.
	c := PaperClockRatios("RCA", 8).Clocks(0.28)
	want := [4]float64{0.501, 0.28, 0.19, 0.129}
	for i := range c {
		if diff := c[i] - want[i]; diff > 0.001 || diff < -0.001 {
			t.Errorf("clock[%d] = %v, want ≈%v", i, c[i], want[i])
		}
	}
	// Unknown configurations fall back to the generic spread.
	g := PaperClockRatios("RCA", 32)
	if g != (ClockRatios{1.80, 1.00, 0.70, 0.45}) {
		t.Errorf("generic ratios = %v", g)
	}
}

func TestClocksRounded(t *testing.T) {
	c := ClockRatios{1.333333, 1, 0.5, 0.25}.Clocks(0.3)
	for _, v := range c {
		r := v * 1000
		if r != float64(int64(r+0.5)) && r != float64(int64(r)) {
			t.Fatalf("clock %v not rounded to 3 decimals", v)
		}
	}
}

func TestSortByBERThenEnergy(t *testing.T) {
	ber := []float64{0, 0.5, 0, 0.2}
	energy := []float64{5, 1, 3, 2}
	idx := SortByBERThenEnergy(4, func(i int) float64 { return ber[i] },
		func(i int) float64 { return energy[i] })
	want := []int{2, 0, 3, 1} // BER 0 (E 3), BER 0 (E 5), BER .2, BER .5
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("order = %v, want %v", idx, want)
		}
	}
}

func TestGroupByOperatingPoint(t *testing.T) {
	set := Set(DefaultSweep([4]float64{0.5, 0.28, 0.19, 0.13}))
	if len(set) != 43 {
		t.Fatalf("sweep set = %d triads, want 43", len(set))
	}
	groups := GroupByOperatingPoint(set)
	if len(groups) != 14 {
		t.Fatalf("got %d groups, want 14 (7 Vdd x 2 Vbb)", len(groups))
	}
	// Every triad appears exactly once, groups share one operating point,
	// and in-group order follows the set order.
	seen := make([]bool, len(set))
	for _, g := range groups {
		if len(g) == 0 {
			t.Fatal("empty group")
		}
		op := set[g[0]].OperatingPoint()
		for j, i := range g {
			if seen[i] {
				t.Fatalf("triad %d grouped twice", i)
			}
			seen[i] = true
			if set[i].OperatingPoint() != op {
				t.Fatalf("group mixes operating points: %v vs %v", set[i].OperatingPoint(), op)
			}
			if j > 0 && g[j] <= g[j-1] {
				t.Fatalf("group indices out of set order: %v", g)
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("triad %d missing from groups", i)
		}
	}
	// The nominal triad shares the full-supply unbiased point with the
	// three aggressive clocks: its group has four members.
	if got := len(groups[0]); got != 4 {
		t.Fatalf("nominal group has %d triads, want 4", got)
	}
}

// Package triad defines operating triads — the (Tclk, Vdd, Vbb)
// combinations of the paper's Table III — and constructs the per-adder
// 43-triad sweep sets used throughout the evaluation (Fig. 8, Table IV).
package triad

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fdsoi"
)

// Triad is one operating point of the characterization sweep.
type Triad struct {
	// Tclk is the capture clock period (ns).
	Tclk float64 `json:"tclk"`
	// Vdd is the supply voltage (V).
	Vdd float64 `json:"vdd"`
	// Vbb is the forward-body-bias magnitude (V). The paper biases both
	// wells symmetrically (n-well +Vbb, p-well −Vbb), hence its "±2"
	// labels; 0 means no bias.
	Vbb float64 `json:"vbb"`
}

// Label formats the triad the way the paper's Fig. 8 x-axes do:
// "Tclk,Vdd,Vbb" with "±2" for the symmetric body bias.
func (t Triad) Label() string {
	vbb := "0"
	if t.Vbb != 0 {
		vbb = fmt.Sprintf("±%g", t.Vbb)
	}
	return fmt.Sprintf("%s,%s,%s", trimFloat(t.Tclk), trimFloat(t.Vdd), vbb)
}

func trimFloat(f float64) string {
	s := fmt.Sprintf("%.3f", f)
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	if len(s) > 3 && s[0] == '0' { // keep the paper's "0.28" style
		return s
	}
	return s
}

// OperatingPoint returns the electrical half of the triad.
func (t Triad) OperatingPoint() fdsoi.OperatingPoint {
	return fdsoi.OperatingPoint{Vdd: t.Vdd, Vbb: t.Vbb}
}

// Validate rejects non-physical triads. The negated comparisons also
// catch NaN, which would otherwise slip through every capture-boundary
// comparison downstream; +Inf passes them and is rejected on its own
// (it has no JSON encoding, so no cache key or result could carry it).
func (t Triad) Validate() error {
	switch {
	case !(t.Tclk > 0):
		return fmt.Errorf("triad: non-positive Tclk %v", t.Tclk)
	case !(t.Vdd > 0):
		return fmt.Errorf("triad: non-positive Vdd %v", t.Vdd)
	case !(t.Vbb >= 0):
		return fmt.Errorf("triad: negative Vbb magnitude %v", t.Vbb)
	case math.IsInf(t.Tclk, 1), math.IsInf(t.Vdd, 1), math.IsInf(t.Vbb, 1):
		return fmt.Errorf("triad: non-finite value in (Tclk %v, Vdd %v, Vbb %v)", t.Tclk, t.Vdd, t.Vbb)
	}
	return nil
}

// ClockRatios holds the four clock periods of a Table III row expressed as
// multiples of the synthesized critical path: one relaxed clock, the
// synthesis clock itself, and two overclocked settings.
type ClockRatios [4]float64

// PaperClockRatios returns the Tclk/CriticalPath ratios implied by the
// paper's Table III for each benchmark (e.g. the 8-bit RCA row 0.5, 0.28,
// 0.19, 0.13 ns over its 0.28 ns critical path). Applying these to our own
// synthesized critical paths keeps the sweep faithful to the methodology
// ("clock period ... chosen based on the synthesis timing report") while
// staying consistent with this reproduction's timing.
func PaperClockRatios(arch string, width int) ClockRatios {
	switch {
	case arch == "RCA" && width == 8:
		return ClockRatios{1.79, 1.00, 0.68, 0.46}
	case arch == "BKA" && width == 8:
		return ClockRatios{2.63, 1.00, 0.68, 0.34}
	case arch == "RCA" && width == 16:
		return ClockRatios{1.32, 1.00, 0.47, 0.38}
	case arch == "BKA" && width == 16:
		return ClockRatios{2.80, 1.00, 0.80, 0.60}
	default:
		// Generic spread for widths the paper did not evaluate.
		return ClockRatios{1.80, 1.00, 0.70, 0.45}
	}
}

// Clocks scales the ratios by the synthesized critical path and rounds to
// the paper's two-significant-digit style.
func (r ClockRatios) Clocks(criticalPath float64) [4]float64 {
	var c [4]float64
	for i, f := range r {
		c[i] = round3(criticalPath * f)
	}
	return c
}

func round3(f float64) float64 { return math.Round(f*1000) / 1000 }

// SweepConfig controls triad-set construction.
type SweepConfig struct {
	// Clocks are the four clock periods (ns), relaxed first.
	Clocks [4]float64
	// VddMax, VddMin, VddStep define the supply sweep (paper: 1.0 → 0.4 in
	// 0.1 steps).
	VddMax, VddMin, VddStep float64
	// VbbValues are the body-bias magnitudes (paper: 0 and ±2).
	VbbValues []float64
}

// DefaultSweep returns the paper's sweep parameters for the given clocks.
func DefaultSweep(clocks [4]float64) SweepConfig {
	return SweepConfig{
		Clocks:    clocks,
		VddMax:    1.0,
		VddMin:    0.4,
		VddStep:   0.1,
		VbbValues: []float64{0, 2},
	}
}

// Set builds the sweep set: the nominal triad (relaxed clock, VddMax, no
// bias) plus the full Vdd × Vbb grid at each of the three aggressive
// clocks. With the paper's parameters this yields exactly 43 triads per
// adder, matching Fig. 8.
func Set(cfg SweepConfig) []Triad {
	triads := []Triad{{Tclk: cfg.Clocks[0], Vdd: cfg.VddMax, Vbb: 0}}
	for _, tclk := range cfg.Clocks[1:] {
		for vdd := cfg.VddMax; vdd >= cfg.VddMin-1e-9; vdd -= cfg.VddStep {
			for _, vbb := range cfg.VbbValues {
				triads = append(triads, Triad{
					Tclk: tclk,
					Vdd:  math.Round(vdd*100) / 100,
					Vbb:  vbb,
				})
			}
		}
	}
	return triads
}

// Nominal returns the reference triad of a set (the first entry by
// construction): relaxed clock, full supply, no bias. Energy efficiency is
// measured against it ("amount of energy saving compared to ideal test
// case").
func Nominal(set []Triad) Triad { return set[0] }

// GroupByOperatingPoint partitions a sweep set's indices by electrical
// operating point: triads that differ only in Tclk land in one group.
// Groups appear in first-occurrence order and preserve the set's triad
// order within each group, so per-triad results assembled group by group
// are positionally identical to a flat per-triad sweep. The paper's
// 43-triad Table III set collapses to 14 groups (a 7×2 Vdd×Vbb grid,
// with the nominal triad sharing the full-supply unbiased point) — the
// basis of the characterization flow's one-simulation-per-electrical-
// point sweep.
func GroupByOperatingPoint(set []Triad) [][]int {
	groups := make([][]int, 0, len(set))
	index := make(map[fdsoi.OperatingPoint]int, len(set))
	for i, tr := range set {
		op := tr.OperatingPoint()
		g, ok := index[op]
		if !ok {
			g = len(groups)
			index[op] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// SuperGroups partitions a sweep set's indices into cross-voltage
// super-groups: triads sharing a body-bias family (equal Vbb) land in
// one group regardless of Vdd and Tclk. Within a family only per-gate
// delays rescale with Vdd, so the event order of a recorded wave is
// frequently preserved across the family's operating points and one
// trace can serve them all via order-stable retiming (the engine
// falls back to fresh simulation per electrical point whenever the
// order check fails, so the grouping is purely a planning hint).
// Families appear in first-occurrence order and preserve the set's
// triad order within each group, so per-triad results assembled group
// by group are positionally identical to a flat per-triad sweep. The
// paper's 43-triad Table III set collapses to 2 super-groups (Vbb 0
// and ±2) covering its 14 electrical points.
func SuperGroups(set []Triad) [][]int {
	groups := make([][]int, 0, 2)
	index := make(map[float64]int, 2)
	for i, tr := range set {
		g, ok := index[tr.Vbb]
		if !ok {
			g = len(groups)
			index[tr.Vbb] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// SortByBERThenEnergy orders triad indices the way the paper's Fig. 8
// x-axes are laid out: ascending bit-error rate, ties broken by ascending
// energy per operation.
func SortByBERThenEnergy(n int, ber func(int) float64, energy func(int) float64) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ba, bb := ber(idx[a]), ber(idx[b])
		if ba != bb {
			return ba < bb
		}
		return energy(idx[a]) < energy(idx[b])
	})
	return idx
}

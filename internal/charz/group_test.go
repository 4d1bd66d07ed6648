package charz

import (
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/synth"
	"repro/internal/triad"
)

// TestGroupedSweepMatchesPerTriad is the grouping acceptance property:
// across the full 43-triad Table III set of all four paper adders, every
// TriadResult produced by the grouped trace path must be deeply equal —
// same accumulator internals, same float bits — to an independent
// per-triad simulation of the same triad. Both production groupings are
// pinned: electrical operating-point groups (the cluster sharding
// granularity) and cross-voltage super-groups (the local planning
// choice, exercising the retime chain down each Vdd ladder).
func TestGroupedSweepMatchesPerTriad(t *testing.T) {
	if testing.Short() {
		t.Skip("full 43-triad grouping parity is not -short")
	}
	for _, bd := range []struct {
		arch  synth.Arch
		width int
	}{
		{synth.ArchRCA, 8},
		{synth.ArchBKA, 8},
		{synth.ArchRCA, 16},
		{synth.ArchBKA, 16},
	} {
		// 137 patterns: two full chunks plus a ragged 9-lane tail, so the
		// grouped path's chunk chaining is exercised end to end.
		cfg := Config{Arch: bd.arch, Width: bd.width, Patterns: 137, Seed: 11}
		prep, err := Prepare(cfg)
		if err != nil {
			t.Fatal(err)
		}
		set := prep.TriadSet()
		if len(set) != 43 {
			t.Fatalf("%s: triad set = %d, want 43", cfg.BenchName(), len(set))
		}
		solo := make([]*TriadResult, len(set))
		for i := range set {
			if solo[i], err = prep.RunTriad(set[i]); err != nil {
				t.Fatal(err)
			}
		}
		for _, gp := range []struct {
			name string
			fn   func([]triad.Triad) [][]int
		}{
			{"point", triad.GroupByOperatingPoint},
			{"super", triad.SuperGroups},
		} {
			groups := gp.fn(set)
			if len(groups) >= len(set) {
				t.Fatalf("%s: %s grouping did not collapse the set (%d groups)",
					cfg.BenchName(), gp.name, len(groups))
			}
			for _, idxs := range groups {
				trs := make([]triad.Triad, len(idxs))
				for j, i := range idxs {
					trs[j] = set[i]
				}
				outs, err := prep.RunGroup(trs)
				if err != nil {
					t.Fatal(err)
				}
				for j, i := range idxs {
					if !reflect.DeepEqual(outs[j], solo[i]) {
						t.Errorf("%s %s [%s]: grouped result diverged from per-triad simulation\ngrouped: %+v\nsolo:    %+v",
							cfg.BenchName(), set[i].Label(), gp.name, outs[j], solo[i])
					}
				}
			}
		}
	}
}

// TestRunGroupValidation pins the group API's edges: empty groups,
// mixed operating points (a cross-voltage group, simulated via the
// retime chain and bit-identical to per-triad runs), and single-triad
// groups.
func TestRunGroupValidation(t *testing.T) {
	prep, err := Prepare(Config{Arch: synth.ArchRCA, Width: 4, Patterns: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := prep.RunGroup(nil); err != nil || out != nil {
		t.Fatalf("empty group: %v, %v", out, err)
	}
	mixed := []triad.Triad{
		{Tclk: 0.3, Vdd: 1.0, Vbb: 0},
		{Tclk: 0.3, Vdd: 0.9, Vbb: 0},
		{Tclk: 0.2, Vdd: 0.9, Vbb: 0},
	}
	mouts, err := prep.RunGroup(mixed)
	if err != nil {
		t.Fatalf("cross-voltage group rejected: %v", err)
	}
	for j, tr := range mixed {
		want, err := prep.RunTriad(tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(mouts[j], want) {
			t.Fatalf("%s: cross-voltage group diverged from RunTriad", tr.Label())
		}
	}
	solo := []triad.Triad{{Tclk: 0.3, Vdd: 0.8, Vbb: 0}}
	outs, err := prep.RunGroup(solo)
	if err != nil {
		t.Fatal(err)
	}
	want, err := prep.RunTriad(solo[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outs[0], want) {
		t.Fatal("single-triad group diverged from RunTriad")
	}
}

// TestGroupedRunMatchesUngroupedRun checks the flow level: a full Run
// (which fans out one cross-voltage super-group per job) must produce
// byte-identical triad results, efficiencies included, to one RunTriad
// per triad.
func TestGroupedRunMatchesUngroupedRun(t *testing.T) {
	cfg := Config{Arch: synth.ArchBKA, Width: 8, Patterns: 97, Seed: 19}
	grouped, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	set := prep.TriadSet()
	ungrouped := make([]TriadResult, len(set))
	for i, tr := range set {
		res, err := prep.RunTriad(tr)
		if err != nil {
			t.Fatal(err)
		}
		ungrouped[i] = *res
	}
	for i := range ungrouped {
		ungrouped[i].Efficiency = metrics.EnergyEfficiency(ungrouped[i].EnergyPerOpFJ, ungrouped[0].EnergyPerOpFJ)
	}
	if !reflect.DeepEqual(grouped.Triads, ungrouped) {
		t.Fatal("grouped Run diverged from per-triad runs")
	}
}

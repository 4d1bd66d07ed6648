package netlist

import (
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/fdsoi"
)

// buildHalfAdder returns a half adder: s = a^b, c = a&b.
func buildHalfAdder(t *testing.T) *Netlist {
	t.Helper()
	b := NewBuilder("ha")
	a := b.InputBus("a", 1)
	bb := b.InputBus("b", 1)
	s := b.Gate(cell.XOR2, a[0], bb[0])
	c := b.Gate(cell.AND2, a[0], bb[0])
	b.OutputBus("s", []NetID{s})
	b.OutputBus("c", []NetID{c})
	nl, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return nl
}

func TestHalfAdderStructure(t *testing.T) {
	nl := buildHalfAdder(t)
	if nl.NumGates() != 2 {
		t.Fatalf("gates = %d, want 2", nl.NumGates())
	}
	if nl.NumNets() != 4 {
		t.Fatalf("nets = %d, want 4", nl.NumNets())
	}
	if nl.MaxLevel() != 1 {
		t.Fatalf("depth = %d, want 1", nl.MaxLevel())
	}
	s, ok := nl.OutputPort("s")
	if !ok || len(s.Bits) != 1 {
		t.Fatal("missing output port s")
	}
	if _, ok := nl.InputPort("a"); !ok {
		t.Fatal("missing input port a")
	}
	if _, ok := nl.InputPort("nope"); ok {
		t.Fatal("phantom input port")
	}
	if !nl.IsPrimaryOutput(s.Bits[0]) {
		t.Fatal("s not recognized as primary output")
	}
	a, _ := nl.InputPort("a")
	if nl.IsPrimaryOutput(a.Bits[0]) {
		t.Fatal("input misreported as primary output")
	}
}

func TestHalfAdderEvaluate(t *testing.T) {
	nl := buildHalfAdder(t)
	st := CompileStimulus(nl)
	s, _ := nl.OutputPort("s")
	c, _ := nl.OutputPort("c")
	for av := uint64(0); av < 2; av++ {
		for bv := uint64(0); bv < 2; bv++ {
			st.MustSet("a", av)
			st.MustSet("b", bv)
			vals := st.Values()
			if err := nl.EvaluateInto(vals); err != nil {
				t.Fatal(err)
			}
			if got := PortValue(s, vals); got != av^bv {
				t.Errorf("s(%d,%d) = %d", av, bv, got)
			}
			if got := PortValue(c, vals); got != av&bv {
				t.Errorf("c(%d,%d) = %d", av, bv, got)
			}
		}
	}
}

func TestDriverAndFanouts(t *testing.T) {
	nl := buildHalfAdder(t)
	a, _ := nl.InputPort("a")
	if nl.Driver(a.Bits[0]) != NoGate {
		t.Fatal("input net has driver")
	}
	if len(nl.Fanouts(a.Bits[0])) != 2 {
		t.Fatalf("input fanouts = %d, want 2", len(nl.Fanouts(a.Bits[0])))
	}
	s, _ := nl.OutputPort("s")
	if nl.Driver(s.Bits[0]) == NoGate {
		t.Fatal("output net undriven")
	}
}

func TestBuilderRejectsBadGateArity(t *testing.T) {
	b := NewBuilder("bad")
	a := b.InputBus("a", 1)
	b.Gate(cell.XOR2, a[0]) // missing input
	if _, err := b.Build(); err == nil {
		t.Fatal("expected arity error")
	}
}

func TestBuilderRejectsEmptyBuses(t *testing.T) {
	b := NewBuilder("bad")
	b.InputBus("a", 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected width error")
	}
	b2 := NewBuilder("bad2")
	b2.OutputBus("s", nil)
	if _, err := b2.Build(); err == nil {
		t.Fatal("expected empty output error")
	}
}

func TestMultipleDriversRejected(t *testing.T) {
	b := NewBuilder("dup")
	a := b.InputBus("a", 2)
	x := b.Gate(cell.AND2, a[0], a[1])
	// Forge a second gate driving the same net.
	b.gates = append(b.gates, Gate{
		ID: GateID(len(b.gates)), Kind: cell.OR2,
		Inputs: []NetID{a[0], a[1]}, Output: x,
	})
	b.OutputBus("o", []NetID{x})
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "multiply driven") {
		t.Fatalf("expected multiple-driver error, got %v", err)
	}
}

func TestCycleRejected(t *testing.T) {
	b := NewBuilder("cyc")
	a := b.InputBus("a", 1)
	// Create two gates manually wired into a loop.
	n1 := b.Net("n1")
	n2 := b.Net("n2")
	b.gates = append(b.gates,
		Gate{ID: 0, Kind: cell.AND2, Inputs: []NetID{a[0], n2}, Output: n1},
		Gate{ID: 1, Kind: cell.OR2, Inputs: []NetID{a[0], n1}, Output: n2},
	)
	b.OutputBus("o", []NetID{n2})
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("expected cycle error, got %v", err)
	}
}

func TestUndrivenOutputRejected(t *testing.T) {
	b := NewBuilder("undriven")
	b.InputBus("a", 1)
	orphan := b.Net("orphan")
	b.OutputBus("o", []NetID{orphan})
	if _, err := b.Build(); err == nil {
		t.Fatal("expected undriven output error")
	}
}

func TestTopologicalOrderRespectsDependencies(t *testing.T) {
	b := NewBuilder("chain")
	a := b.InputBus("a", 2)
	x := b.Gate(cell.AND2, a[0], a[1])
	y := b.Gate(cell.INV, x)
	z := b.Gate(cell.OR2, y, a[0])
	b.OutputBus("o", []NetID{z})
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[GateID]int)
	for i, g := range nl.Topological() {
		pos[g] = i
	}
	for gi := range nl.Gates {
		g := &nl.Gates[gi]
		for _, in := range g.Inputs {
			if d := nl.Driver(in); d != NoGate && pos[d] >= pos[g.ID] {
				t.Fatalf("gate %d scheduled before its fanin %d", g.ID, d)
			}
		}
	}
	if nl.MaxLevel() != 3 {
		t.Fatalf("depth = %d, want 3", nl.MaxLevel())
	}
	if nl.Level(nl.Driver(z)) != 3 {
		t.Fatalf("level(z) = %d, want 3", nl.Level(nl.Driver(z)))
	}
}

func TestAreaAndLeakageAndCounts(t *testing.T) {
	lib := cell.Default28nmLVT()
	nl := buildHalfAdder(t)
	wantArea := lib.MustCell(cell.XOR2).Area + lib.MustCell(cell.AND2).Area
	if got := nl.Area(lib); got != wantArea {
		t.Fatalf("Area = %v, want %v", got, wantArea)
	}
	wantLeak := (lib.MustCell(cell.XOR2).Leakage + lib.MustCell(cell.AND2).Leakage) / 1000
	if got := nl.LeakagePower(lib); got != wantLeak {
		t.Fatalf("LeakagePower = %v, want %v", got, wantLeak)
	}
	counts := nl.CellCounts()
	if counts[cell.XOR2] != 1 || counts[cell.AND2] != 1 {
		t.Fatalf("CellCounts = %v", counts)
	}
}

func TestNetLoadIncludesCaptureCap(t *testing.T) {
	lib := cell.Default28nmLVT()
	nl := buildHalfAdder(t)
	s, _ := nl.OutputPort("s")
	a, _ := nl.InputPort("a")
	outLoad := nl.NetLoad(lib, s.Bits[0])
	if outLoad != lib.NetLoad(nil)+cell.CaptureCap {
		t.Fatalf("output load = %v", outLoad)
	}
	inLoad := nl.NetLoad(lib, a.Bits[0])
	want := lib.NetLoad([]float64{lib.MustCell(cell.XOR2).InputCap, lib.MustCell(cell.AND2).InputCap})
	if inLoad != want {
		t.Fatalf("input load = %v, want %v", inLoad, want)
	}
}

func TestMismatchSamplingAssignsOffsets(t *testing.T) {
	b := NewBuilder("mm")
	b.SetMismatch(fdsoi.NewMismatchSampler(0.01, 99))
	a := b.InputBus("a", 2)
	x := b.Gate(cell.AND2, a[0], a[1])
	y := b.Gate(cell.OR2, a[0], x)
	b.OutputBus("o", []NetID{y})
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	nonZero := 0
	for i := range nl.Gates {
		if nl.Gates[i].VtOffset != 0 {
			nonZero++
		}
	}
	if nonZero == 0 {
		t.Fatal("no gate received a mismatch offset")
	}
}

func TestStringer(t *testing.T) {
	nl := buildHalfAdder(t)
	s := nl.String()
	if !strings.Contains(s, "ha") || !strings.Contains(s, "gates:2") {
		t.Fatalf("String() = %q", s)
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild did not panic on invalid netlist")
		}
	}()
	b := NewBuilder("bad")
	a := b.InputBus("a", 1)
	b.Gate(cell.XOR2, a[0])
	b.MustBuild()
}

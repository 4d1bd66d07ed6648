package netlist

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/cell"
)

// randomNetlist builds a random combinational DAG: a few input buses, then
// gates of every library kind reading arbitrary earlier nets.
func randomNetlist(t *testing.T, rng *rand.Rand, idx int) *Netlist {
	t.Helper()
	b := NewBuilder(fmt.Sprintf("rand%d", idx))
	var nets []NetID
	for i := 0; i < 1+rng.IntN(3); i++ {
		nets = append(nets, b.InputBus(fmt.Sprintf("in%d", i), 1+rng.IntN(8))...)
	}
	nGates := 1 + rng.IntN(40)
	outs := make([]NetID, 0, nGates)
	for g := 0; g < nGates; g++ {
		kind := cell.Kind(rng.IntN(12))
		ins := make([]NetID, kind.NumInputs())
		for j := range ins {
			ins[j] = nets[rng.IntN(len(nets))]
		}
		out := b.Gate(kind, ins...)
		nets = append(nets, out)
		outs = append(outs, out)
	}
	lo := len(outs) - 8
	if lo < 0 {
		lo = 0
	}
	b.OutputBus("out", outs[lo:])
	nl, err := b.Build()
	if err != nil {
		t.Fatalf("random netlist %d: %v", idx, err)
	}
	return nl
}

// randomInputs draws one full input assignment as a dense per-net image.
func randomInputs(nl *Netlist, rng *rand.Rand) []uint8 {
	in := make([]uint8, nl.NumNets())
	for _, p := range nl.Inputs {
		for _, b := range p.Bits {
			in[b] = uint8(rng.Uint64() & 1)
		}
	}
	return in
}

// TestEvaluateBatchMatchesScalar cross-checks the 64-way bit-sliced
// evaluator against the scalar reference on 250 random netlists × 64
// random vectors each: every lane of every net must agree.
func TestEvaluateBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xba7c4, 1))
	for n := 0; n < 250; n++ {
		nl := randomNetlist(t, rng, n)
		lanes := make([]uint64, nl.NumNets())
		scalar := make([][]uint8, BatchLanes)
		for k := 0; k < BatchLanes; k++ {
			vals := randomInputs(nl, rng)
			for id, v := range vals {
				lanes[id] |= uint64(v) << uint(k)
			}
			if err := nl.EvaluateInto(vals); err != nil {
				t.Fatalf("netlist %d vector %d: %v", n, k, err)
			}
			scalar[k] = vals
		}
		if err := nl.EvaluateBatch(lanes); err != nil {
			t.Fatalf("netlist %d: %v", n, err)
		}
		for k := 0; k < BatchLanes; k++ {
			for id := range nl.Nets {
				got := uint8(lanes[id]>>uint(k)) & 1
				if got != scalar[k][id] {
					t.Fatalf("netlist %d vector %d net %q: batch=%d scalar=%d",
						n, k, nl.Nets[id].Name, got, scalar[k][id])
				}
			}
		}
	}
}

// TestEvaluateBatchLaneHelpers round-trips port words through the lane
// scatter/gather helpers.
func TestEvaluateBatchLaneHelpers(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	nl := randomNetlist(t, rng, 0)
	p := nl.Inputs[0]
	lanes := make([]uint64, nl.NumNets())
	words := make([]uint64, BatchLanes)
	for k := range words {
		words[k] = rng.Uint64() & (1<<uint(len(p.Bits)) - 1)
		AssignPortLane(lanes, p, uint(k), words[k])
	}
	for k := range words {
		if got := PortLaneValue(p, lanes, uint(k)); got != words[k] {
			t.Fatalf("lane %d: got %x want %x", k, got, words[k])
		}
	}
}

func TestEvaluateIntoRejectsBadImage(t *testing.T) {
	nl := buildHalfAdder(t)
	if err := nl.EvaluateInto(make([]uint8, nl.NumNets()+1)); err == nil {
		t.Fatal("wrong-length image accepted")
	}
	bad := make([]uint8, nl.NumNets())
	bad[nl.Inputs[0].Bits[0]] = 2
	if err := nl.EvaluateInto(bad); err == nil {
		t.Fatal("non-boolean input accepted")
	}
	if err := nl.EvaluateBatch(make([]uint64, nl.NumNets()-1)); err == nil {
		t.Fatal("wrong-length lane image accepted")
	}
}

func TestStimulusCompile(t *testing.T) {
	nl := buildHalfAdder(t)
	st := CompileStimulus(nl)
	if _, ok := st.Slot("nope"); ok {
		t.Fatal("unknown port resolved")
	}
	if err := st.Set("nope", 1); err == nil {
		t.Fatal("Set on unknown port succeeded")
	}
	st.MustSet("a", 1)
	st.MustSet("b", 1)
	vals := st.Values()
	if err := nl.EvaluateInto(vals); err != nil {
		t.Fatal(err)
	}
	s, _ := nl.OutputPort("s")
	c, _ := nl.OutputPort("c")
	if PortValue(s, vals) != 0 || PortValue(c, vals) != 1 {
		t.Fatalf("1+1: s=%d c=%d, want 0/1", PortValue(s, vals), PortValue(c, vals))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustSet on unknown port did not panic")
		}
	}()
	st.MustSet("nope", 1)
}

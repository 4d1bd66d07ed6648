package synth

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/fdsoi"
	"repro/internal/netlist"
)

// referenceToggleEnergy is the dense activity estimate averageToggleEnergy
// replaced: per-bit draws through rand.Rand scattered into lane words, and
// a branchless fold adding gateE·0.0 for every untoggled (vector, gate).
func referenceToggleEnergy(nl *netlist.Netlist, lib *cell.Library, vectors int, seed uint64) (float64, error) {
	if vectors < 2 {
		vectors = 2
	}
	rng := rand.New(rand.NewPCG(seed, 0xda7a))
	gateE := make([]float64, nl.NumGates())
	loads := nl.NetLoads(lib)
	for gi := range nl.Gates {
		g := &nl.Gates[gi]
		gateE[gi] = fdsoi.SwitchingEnergy(loads[g.Output], 1.0) + lib.MustCell(g.Kind).InternalEnergy
	}
	lanes := make([]uint64, nl.NumNets())
	prev := make([]uint8, nl.NumNets())
	togs := make([]uint64, nl.NumGates())
	var total float64
	for done := 0; done < vectors; {
		n := min(vectors-done, netlist.BatchLanes)
		for k := 0; k < n; k++ {
			bit := uint64(1) << uint(k)
			for _, p := range nl.Inputs {
				for _, b := range p.Bits {
					if rng.Uint64()&1 != 0 {
						lanes[b] |= bit
					} else {
						lanes[b] &^= bit
					}
				}
			}
		}
		if err := nl.EvaluateBatch(lanes); err != nil {
			return 0, err
		}
		for gi := range nl.Gates {
			x := lanes[nl.Gates[gi].Output]
			togs[gi] = x ^ (x<<1 | uint64(prev[nl.Gates[gi].Output]))
		}
		for k := 0; k < n; k++ {
			if done+k == 0 {
				continue
			}
			for gi, tg := range togs {
				total += gateE[gi] * float64(tg>>uint(k)&1)
			}
		}
		for i := range prev {
			prev[i] = uint8(lanes[i]>>uint(n-1)) & 1
		}
		done += n
	}
	return total / float64(vectors-1), nil
}

// TestToggleEnergyMatchesReference: the transposed draws and the sparse
// fold give the dense reference's estimate bit for bit, for every adder
// architecture at widths 1–32, with carry-in where the generator has one
// (up to 65 input bits, two input blocks), for multipliers (up to 64
// inputs and many gate blocks) and for the approximate adders, at vector
// counts around the 64-vector batch edges.
func TestToggleEnergyMatchesReference(t *testing.T) {
	lib := cell.Default28nmLVT()
	type netCase struct {
		name string
		nl   *netlist.Netlist
	}
	var nets []netCase
	add := func(nl *netlist.Netlist, err error) {
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, netCase{nl.Name, nl})
	}
	for _, arch := range Arches() {
		for width := 1; width <= 32; width++ {
			for _, cin := range []bool{false, true} {
				if cin && arch == ArchCSel {
					continue // the carry-select generator has no carry-in
				}
				nl, err := NewAdder(arch, AdderConfig{Width: width, WithCin: cin})
				add(nl, err)
			}
		}
	}
	for _, w := range []int{4, 8, 32} {
		nl, err := ArrayMultiplier(MultiplierConfig{Width: w})
		add(nl, err)
		nl, err = LOA(ApproxConfig{Width: w, ApproxBits: w / 2})
		add(nl, err)
		nl, err = TRA(ApproxConfig{Width: w, ApproxBits: w / 4})
		add(nl, err)
	}
	for i, c := range nets {
		for _, vectors := range []int{1, 2, 63, 64, 65, 130, 2000} {
			seed := uint64(i*31 + vectors)
			got, err := averageToggleEnergy(c.nl, lib, vectors, seed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceToggleEnergy(c.nl, lib, vectors, seed)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s at %d vectors: %v, reference %v", c.name, vectors, got, want)
			}
		}
	}
}

// TestSynthesizeRejectsNonFiniteToggleEnergy: a library whose cell has
// an infinite or NaN internal energy makes the power estimate
// meaningless, and Synthesize reports it instead of returning a NaN
// power.
func TestSynthesizeRejectsNonFiniteToggleEnergy(t *testing.T) {
	nl, err := RCA(AdderConfig{Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []float64{math.Inf(1), math.NaN()} {
		lib := cell.Default28nmLVT()
		lib.MustCell(cell.XOR2).InternalEnergy = e
		rep, err := Synthesize(nl, lib, fdsoi.Default(), 200, 1)
		if err == nil || !strings.Contains(err.Error(), "not finite") {
			t.Fatalf("internal energy %v: report %+v, err %v; want a non-finite energy error", e, rep, err)
		}
	}
}

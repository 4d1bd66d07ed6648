package charz

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/patterns"
	"repro/internal/synth"
)

// referenceStimulus builds a sweep's stimulus the bit-at-a-time way
// buildStimulus replaced: pairs from a plain generator loop, the
// reference words from per-lane AssignPortLane scatters and
// PortLaneValue gathers around each EvaluateBatch (the reference lanes
// are their per-chunk transpose), and the lane images from one
// transpose per operand into full per-net images.
func referenceStimulus(nl *netlist.Netlist, cfg Config) (*stimulus, error) {
	gen, err := patterns.NewPropagateProfile(cfg.Width, cfg.PropagateP, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s := &stimulus{as: make([]uint64, cfg.Patterns), bs: make([]uint64, cfg.Patterns)}
	for i := range s.as {
		s.as[i], s.bs[i] = gen.Next()
	}
	pa, _ := nl.InputPort(synth.PortA)
	pb, _ := nl.InputPort(synth.PortB)
	psum, _ := nl.OutputPort(synth.PortSum)
	pcout, _ := nl.OutputPort(synth.PortCout)
	lanes := make([]uint64, nl.NumNets())
	s.want = make([]uint64, len(s.as))
	for base := 0; base < len(s.as); base += netlist.BatchLanes {
		n := min(len(s.as)-base, netlist.BatchLanes)
		for k := 0; k < n; k++ {
			netlist.AssignPortLane(lanes, pa, uint(k), s.as[base+k])
			netlist.AssignPortLane(lanes, pb, uint(k), s.bs[base+k])
		}
		if err := nl.EvaluateBatch(lanes); err != nil {
			return nil, err
		}
		for k := 0; k < n; k++ {
			s.want[base+k] = netlist.PortLaneValue(psum, lanes, uint(k)) |
				netlist.PortLaneValue(pcout, lanes, uint(k))<<uint(cfg.Width)
		}
		var tw [64]uint64
		copy(tw[:], s.want[base:base+n])
		metrics.Transpose64(&tw)
		s.wantLanes = append(s.wantLanes, tw[:cfg.Width+1]...)
	}
	for _, port := range nl.Inputs {
		s.inputs = append(s.inputs, port.Bits...)
	}
	prevW := make([]uint64, nl.NumNets())
	curW := make([]uint64, nl.NumNets())
	lastBit := make([]uint64, nl.NumNets())
	for base := 0; base < cfg.Patterns; base += 64 {
		n := min(cfg.Patterns-base, 64)
		var ta, tb [64]uint64
		copy(ta[:], s.as[base:base+n])
		copy(tb[:], s.bs[base:base+n])
		metrics.Transpose64(&ta)
		metrics.Transpose64(&tb)
		for i, id := range pa.Bits {
			curW[id] = ta[i]
		}
		for i, id := range pb.Bits {
			curW[id] = tb[i]
		}
		lm := laneMask(n)
		for _, id := range s.inputs {
			cw := curW[id]
			prevW[id] = (cw<<1 | lastBit[id]) & lm
			lastBit[id] = cw >> 63
		}
		prev := make([]uint64, len(s.inputs))
		cur := make([]uint64, len(s.inputs))
		for j, id := range s.inputs {
			prev[j], cur[j] = prevW[id], curW[id]
		}
		s.prev = append(s.prev, prev)
		s.cur = append(s.cur, cur)
	}
	return s, nil
}

func equalStimulus(got, want *stimulus) error {
	for _, f := range []struct {
		name      string
		got, want []uint64
	}{{"a", got.as, want.as}, {"b", got.bs, want.bs}, {"reference", got.want, want.want},
		{"reference lane", got.wantLanes, want.wantLanes}} {
		if i := firstDiff(f.got, f.want); i >= 0 {
			return fmt.Errorf("%s words differ first at index %d", f.name, i)
		}
	}
	if !slices.Equal(got.inputs, want.inputs) {
		return fmt.Errorf("input nets %v, reference %v", got.inputs, want.inputs)
	}
	if len(got.prev) != len(want.prev) || len(got.cur) != len(want.cur) {
		return fmt.Errorf("%d/%d chunk images, reference %d/%d", len(got.prev), len(got.cur), len(want.prev), len(want.cur))
	}
	for c := range want.cur {
		if !slices.Equal(got.prev[c], want.prev[c]) || !slices.Equal(got.cur[c], want.cur[c]) {
			return fmt.Errorf("lane images of chunk %d differ", c)
		}
	}
	return nil
}

func firstDiff(a, b []uint64) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestStimulusMatchesReference: the transposed one-pass stimulus build
// reproduces the reference pairs, reference words and lane images for
// every architecture at widths 1–32, on full and ragged chunk counts.
func TestStimulusMatchesReference(t *testing.T) {
	for _, arch := range synth.Arches() {
		for width := 1; width <= 32; width++ {
			nl, err := synth.NewAdder(arch, synth.AdderConfig{Width: width})
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 63, 64, 65, 2000} {
				cfg := Config{Arch: arch, Width: width, Patterns: n, Seed: uint64(width*7 + n),
					PropagateP: []float64{0.5, 0.2, 0.8}[width%3]}
				p := &Prepared{Config: cfg, Netlist: nl}
				got, err := p.stimulusSet()
				if err != nil {
					t.Fatal(err)
				}
				want, err := referenceStimulus(nl, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := equalStimulus(got, want); err != nil {
					t.Fatalf("%s%d at %d patterns: %v", arch, width, n, err)
				}
			}
		}
	}
}

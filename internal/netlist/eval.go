package netlist

import "fmt"

// EvaluateInto computes the steady-state boolean value of every driven net
// in place, in topological order. values must be a dense per-net image of
// length NumNets whose primary-input entries are already assigned; every
// gate-driven entry is overwritten. It is the allocation-free zero-delay
// functional reference: the simulators' ResetDense settles through it, and
// a reference for one vector is a Stimulus image evaluated in place.
func (n *Netlist) EvaluateInto(values []uint8) error {
	if len(values) != len(n.Nets) {
		return fmt.Errorf("netlist %s: value image has %d entries, want %d",
			n.Name, len(values), len(n.Nets))
	}
	for _, p := range n.Inputs {
		for _, b := range p.Bits {
			if values[b] > 1 {
				return fmt.Errorf("netlist %s: input %q non-boolean value %d",
					n.Name, n.Nets[b].Name, values[b])
			}
		}
	}
	for _, gid := range n.topo {
		g := &n.Gates[gid]
		var a, b, c uint8
		switch len(g.Inputs) {
		case 1:
			a = values[g.Inputs[0]]
		case 2:
			a, b = values[g.Inputs[0]], values[g.Inputs[1]]
		case 3:
			a, b, c = values[g.Inputs[0]], values[g.Inputs[1]], values[g.Inputs[2]]
		}
		values[g.Output] = uint8(g.Kind.EvalWord(uint64(a), uint64(b), uint64(c)) & 1)
	}
	return nil
}

// BatchLanes is the number of stimulus vectors one EvaluateBatch pass
// computes: each lane word carries one net's value across BatchLanes
// vectors, vector k in bit k.
const BatchLanes = 64

// EvaluateBatch computes the zero-delay steady state of up to BatchLanes
// stimulus vectors in one bit-sliced pass: lanes must be a dense per-net
// image of length NumNets whose primary-input lane words are already
// filled (bit k = net value under vector k); every gate-driven lane is
// overwritten in topological order. One pass costs one word op per gate
// input — the per-vector reference cost is 64× below EvaluateInto.
func (n *Netlist) EvaluateBatch(lanes []uint64) error {
	if len(lanes) != len(n.Nets) {
		return fmt.Errorf("netlist %s: lane image has %d entries, want %d",
			n.Name, len(lanes), len(n.Nets))
	}
	for _, gid := range n.topo {
		g := &n.Gates[gid]
		var a, b, c uint64
		switch len(g.Inputs) {
		case 1:
			a = lanes[g.Inputs[0]]
		case 2:
			a, b = lanes[g.Inputs[0]], lanes[g.Inputs[1]]
		case 3:
			a, b, c = lanes[g.Inputs[0]], lanes[g.Inputs[1]], lanes[g.Inputs[2]]
		}
		lanes[g.Output] = g.Kind.EvalWord(a, b, c)
	}
	return nil
}

// EvaluateWide computes the zero-delay steady state of up to k·BatchLanes
// stimulus vectors in one bit-sliced pass over flat k-word lane blocks:
// lanes must be a dense per-net image of length NumNets·k, net id's block
// occupying lanes[id·k : id·k+k] with vector j·64+b in bit b of word j.
// Primary-input blocks must already be filled; every gate-driven block is
// overwritten in topological order. Word j of the image is exactly an
// EvaluateBatch of its own 64 vectors — the wide layout only amortizes the
// topological walk and the gate-table loads across k words.
func (n *Netlist) EvaluateWide(lanes []uint64, k int) error {
	if k < 1 {
		return fmt.Errorf("netlist %s: non-positive lane-block width %d", n.Name, k)
	}
	if len(lanes) != len(n.Nets)*k {
		return fmt.Errorf("netlist %s: lane image has %d entries, want %d",
			n.Name, len(lanes), len(n.Nets)*k)
	}
	for _, gid := range n.topo {
		g := &n.Gates[gid]
		kind := g.Kind
		out := int(g.Output) * k
		a := int(g.Inputs[0]) * k
		b, c := a, a
		if len(g.Inputs) > 1 {
			b = int(g.Inputs[1]) * k
		}
		if len(g.Inputs) > 2 {
			c = int(g.Inputs[2]) * k
		}
		for j := 0; j < k; j++ {
			lanes[out+j] = kind.EvalWord(lanes[a+j], lanes[b+j], lanes[c+j])
		}
	}
	return nil
}

// PortValue packs the bits of port p (from the given net-value vector) into
// a little-endian word.
func PortValue(p Port, values []uint8) uint64 {
	var w uint64
	for i, b := range p.Bits {
		w |= uint64(values[b]&1) << uint(i)
	}
	return w
}

// AssignPortLane scatters the low bits of word w onto port p's lane words
// for batch vector k (bit position k of each lane).
func AssignPortLane(lanes []uint64, p Port, k uint, w uint64) {
	bit := uint64(1) << k
	for i, b := range p.Bits {
		if w>>uint(i)&1 != 0 {
			lanes[b] |= bit
		} else {
			lanes[b] &^= bit
		}
	}
}

// PortLaneValue gathers batch vector k's value of port p from the lane
// image into a little-endian word.
func PortLaneValue(p Port, lanes []uint64, k uint) uint64 {
	var w uint64
	for i, b := range p.Bits {
		w |= (lanes[b] >> k & 1) << uint(i)
	}
	return w
}

package netlist

import "fmt"

// Stimulus is a compiled input binding: the port-name→net wiring of one
// netlist resolved once into dense bit→net index slices, scattering words
// into a per-net value image with no map operations. That image is the
// input form of the simulators and the zero-delay evaluator — a
// characterization sweep binds two operand ports per vector, so the
// binding cost sits inside the innermost stimulus loop.
//
// The zero value is not usable; build one with CompileStimulus. A Stimulus
// is not safe for concurrent use (sweeps compile one per goroutine).
type Stimulus struct {
	nl     *Netlist
	values []uint8 // dense per-net image; only input entries are driven here
	ports  []Port  // input ports in slot order
	slots  map[string]int
}

// CompileStimulus compiles the input binding of nl with every input bit
// initialized to zero.
func CompileStimulus(nl *Netlist) *Stimulus {
	s := &Stimulus{
		nl:     nl,
		values: make([]uint8, nl.NumNets()),
		ports:  nl.Inputs,
		slots:  make(map[string]int, len(nl.Inputs)),
	}
	for i, p := range nl.Inputs {
		s.slots[p.Name] = i
	}
	return s
}

// Slot resolves an input-port name to its slot index. Resolve once outside
// the pattern loop, then drive SetSlot.
func (s *Stimulus) Slot(name string) (int, bool) {
	i, ok := s.slots[name]
	return i, ok
}

// MustSlot is Slot that panics on unknown ports.
func (s *Stimulus) MustSlot(name string) int {
	i, ok := s.slots[name]
	if !ok {
		panic(fmt.Sprintf("netlist: stimulus for %s has no input port %q", s.nl.Name, name))
	}
	return i
}

// SetSlot scatters the low bits of w onto the slot's port nets (bit 0 to
// the port's least-significant net).
func (s *Stimulus) SetSlot(slot int, w uint64) {
	for i, b := range s.ports[slot].Bits {
		s.values[b] = uint8(w>>uint(i)) & 1
	}
}

// Set assigns the low bits of w to the named input port.
func (s *Stimulus) Set(name string, w uint64) error {
	i, ok := s.slots[name]
	if !ok {
		return fmt.Errorf("netlist: stimulus for %s has no input port %q", s.nl.Name, name)
	}
	s.SetSlot(i, w)
	return nil
}

// MustSet is Set that panics on unknown ports.
func (s *Stimulus) MustSet(name string, w uint64) {
	s.SetSlot(s.MustSlot(name), w)
}

// Values returns the dense per-net input image, indexed by NetID. Only
// primary-input entries are meaningful; the slice is owned by the Stimulus
// and remains valid (and mutable through Set/SetSlot) across calls. It is
// the argument the dense simulator entry points take.
func (s *Stimulus) Values() []uint8 { return s.values }

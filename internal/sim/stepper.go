package sim

// Stepper is the dense two-vector protocol seam shared by the timing
// engines: the gate-level engine (this package) and the switch-level RC
// engine (internal/rcsim) both implement it, so the characterization flow
// drives either backend — and any future one — through a single
// backend-agnostic pattern loop.
//
// Input images are dense per-net []uint8 slices indexed by netlist.NetID
// (netlist.Stimulus compiles port bindings into one). Implementations own
// the returned Result, which stays valid only until the next call.
type Stepper interface {
	// ResetDense instantly settles the circuit on the dense input image,
	// discarding pending activity.
	ResetDense(values []uint8) error
	// StepDense runs one two-vector timing experiment: inputs switch at
	// t = 0, outputs are captured at t = tclk, and the circuit settles.
	StepDense(values []uint8, tclk float64) (*Result, error)
}

// Compile-time seam check.
var _ Stepper = (*Engine)(nil)

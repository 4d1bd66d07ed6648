// Package sim is the transistor-level-simulation substitute of the
// reproduction (Eldo SPICE in the paper's Fig. 4 flow): an event-driven
// gate-level timing simulator whose per-gate delays come from the FDSOI
// device model at an arbitrary operating point.
//
// Timing errors under voltage over-scaling emerge exactly as in silicon:
// input transitions launch waves of events through the netlist; a capture
// register samples the primary outputs at t = Tclk; any path whose events
// have not yet fired contributes stale or intermediate values to the
// captured word. Glitches propagate (transport delay) and are charged to
// the per-operation energy, which also integrates operating-point-scaled
// leakage over the clock period.
//
// The hot path is dense and index-addressed: input vectors arrive as a
// per-net []uint8 image (netlist.Stimulus compiles port bindings into one),
// the event queue is a bucketed time-wheel rather than a binary heap, and
// the entry points (ResetDense, StepDense, StreamStepDense) reuse the
// engine's result buffers so a characterization sweep allocates nothing per
// vector. A Result is therefore valid only until the engine's next step; a
// caller that compares two results from one engine copies the first.
//
// # The wide engine
//
// At a fixed operating point every gate delay is data-independent, so the
// classic parallel-pattern single-delay trick applies: WideEngine carries
// a bit-sliced net image of K uint64 words per net (K up to
// MaxWideWords; bit b of word j belongs to pattern j·64+b) through the
// same event schedule. A gate is re-evaluated with one cell.Kind.EvalWord
// call per changed word, an event fires when any lane of any word
// changes (old ^ new != 0), and per-lane energy and late flags are
// attributed from the changed-lane masks. Lane L's
// event times, captured values and energy sums are bit-identical to a
// scalar run of pattern L at every K (the golden parity suite and the
// randomized wide-vs-scalar cross-checks enforce this): lanes only ever
// share work, never semantics. The scalar dense engine remains as the
// reference implementation and as the backend of the streaming protocol,
// which is temporally serial (each vector launches into the unsettled
// wake of the previous one) and therefore cannot be pattern-parallelized.
//
// The clock period never influences the event wave — Tclk enters a
// two-vector experiment only as the capture boundary and the
// leakage·Tclk energy term — so one simulation per electrical (Vdd, Vbb)
// point suffices for any number of clocks. The wide engine has one
// fresh event loop behind two entry points. StepWide runs the
// experiment to full quiescence and captures every clock of the point
// in that one walk: given the clocks ascending, it fills one WideSample
// per clock just before the first event past it, so each lane of a
// sample holds exactly what a scalar StepDense of that lane's pattern
// at that Tclk reports — the tracked nets' blocks after every event at
// or before the clock (the calendar queue's pop boundary is inclusive,
// so an event exactly at Tclk is captured), the running per-lane energy
// plus leakPower·Tclk (same floats, same addition order) and the late
// mask. The late masks are built in the walk: each event ORs its
// changed lanes into the mask of the last clock captured before it, and
// one suffix OR at the end makes each mask "any transition after this
// clock". Per-lane energy attribution stops after the last clock, while
// the wave runs on to quiescence for the late masks. StepWideTrace is
// the same walk that also records the retime log below. The
// characterization flow rides this to simulate each distinct operating
// point of the paper's 43-triad grid once per chunk (the grid holds only
// ~14 electrical points; the clocks sharing each point are captures of
// one walk), a one-triad group included; the scalar engine is the
// reference the walks are tested and fuzzed against.
//
// # Cross-voltage retiming
//
// The trace StepWideTrace returns is a retime log, the
// operating-point-independent record of the wave: per effective event
// the gate that fired it, its causal parent event and its changed-lane
// block; the distinct event timestamps; the tracked nets' value changes;
// and the t = 0 input-toggle set.
//
// RetimeTrace serves a neighboring operating point from that log
// without re-simulating: each event's firing time is re-derived from
// its parent's (exactly the floats a fresh simulation computes), the
// recorded order is checked — non-decreasing overall, strictly
// increasing across distinct source timestamps — and one walk of the
// log captures the point's clocks exactly as StepWideTrace at that point
// would: the input-toggle log against the point's pin energies, each
// event's gate energy up to the last clock, the recorded tracked-net
// changes, and one backward OR pass for the late masks. A rejected check
// reports a fallback (RetimeStats) and the caller re-simulates. No
// retimed trace is built: every point of a body-bias family retimes
// the family's fresh anchor.
//
// Order stability across the Vdd ladder is engineered in compileTables:
// gate delays are rounded to a dyadic grid (delayQuantum) so path sums
// are exact and permutation-proof, and offset by a deterministic
// per-gate sub-quantum dither (ditherBits) that separates degenerate
// reconvergent path sums by an operating-point-independent gap far
// above per-point rounding noise. Without the dither, a Brent-Kung
// adder's equal-delay path pairs reorder under re-rounding at every
// neighboring Vdd and no retime survives; with it, the whole Fig. 8
// grid retimes. The quantum and dither are shared by both engines
// (scalar and wide), so cross-engine parity is by construction.
package sim

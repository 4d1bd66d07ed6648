// Package repro reproduces "Pushing the Limits of Voltage Over-Scaling
// for Error-Resilient Applications" (Ragavan, Barrois, Killian, Sentieys —
// DATE 2017) as a self-contained Go library: gate-level adder generators,
// a 28nm-FDSOI-like timing/energy model, an event-driven VOS timing
// simulator with a K×64-lane wide core (up to 512 patterns per event
// wave, bit-identical to the scalar reference), the paper's statistical
// carry-chain operator model, a characterization flow regenerating every
// table and figure, a dynamic triad-speculation governor, and
// error-resilient application kernels.
//
// The public entry point is the vos package ("repro/vos"): a Spec
// builder over the sweep configuration space and one Client API whose
// Local and Remote implementations run characterizations in-process or
// against a vosd daemon interchangeably, with streaming per-point
// events. Everything under internal/ is plumbing behind that SDK.
//
// See README.md for the layout and DESIGN.md for the system inventory;
// API.md documents vosd's REST surface, and api/vos.txt pins the SDK's
// exported surface (make apicheck). bench_test.go regenerates each
// experiment (go test -bench=.).
package repro

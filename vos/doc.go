// Package vos is the public SDK of this reproduction: one Client API for
// characterizing voltage-over-scaled operators, whether the sweeps run on
// an in-process engine (Local) or against a remote vosd daemon (Remote).
//
// A characterization is described by a Spec — a fluent builder over the
// sweep configuration space (architectures × widths × triad policy ×
// backend × stimulus) — and produces a Result: per-operator synthesis
// reports and per-operating-point error/energy summaries, with
// projections for the paper's Fig. 5, Fig. 8 and Table IV.
//
//	cli, err := vos.NewLocal(vos.LocalOptions{})
//	if err != nil { ... }
//	defer cli.Close()
//
//	spec := vos.NewSpec().Arches("RCA").Widths(8).Patterns(2000).Seed(1)
//	res, err := cli.Run(ctx, spec)
//	if err != nil { ... }
//	for _, p := range res.Operators[0].Fig8() {
//		fmt.Println(p.Triad.Label(), p.BER, p.EnergyPerOpFJ)
//	}
//
// Swapping the execution site is one line — vos.NewRemote("http://host:8420",
// vos.RemoteOptions{}) returns a Client with identical behavior, down to
// identical result values (both sites run the same deterministic engine,
// and Local converts the engine's values into exactly what Remote decodes
// from the daemon's JSON). Long sweeps stream incremental per-point
// events through Client.Events on either transport.
//
// The REST surface behind Remote is documented in API.md; the exported
// surface of this package is pinned by api/vos.txt (make apicheck).
package vos

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/apps"
	"repro/internal/charz"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/triad"
	"repro/vos"
)

// probe times the layers with no seam on the workload's path by calling
// their public functions directly, on the inputs the workload used.
func probe(w *workload, in any, seed uint64, plain *measurement, out map[string]float64) error {
	switch w.name {
	case "fig8_cold":
		return probeSweep(in.(*sweepInputs), seed, plain, out)
	case "serve_warm":
		sw := in.(*sweepInputs)
		prep, err := prepare(sw.Operators[0], sw.Seed)
		if err != nil {
			return err
		}
		res, err := runGroups(prep)
		if err != nil {
			return err
		}
		out["engine.point_codec_us"] = codecMicros(res[0])
		return nil
	case "mc_1e6":
		return probeMC(in.(*mcInputs), out)
	}
	return nil
}

func prepare(o operator, seed uint64) (*charz.Prepared, error) {
	arch, err := archByName(o.Arch)
	if err != nil {
		return nil, err
	}
	return charz.Prepare(charz.Config{Arch: arch, Width: o.Width, Patterns: patterns, Seed: seed})
}

func since(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// runGroups runs a prepared operator's paper triads, one RunGroup per
// super-group, as the engine's local planner does.
func runGroups(prep *charz.Prepared) ([]*charz.TriadResult, error) {
	set := prep.TriadSet()
	var out []*charz.TriadResult
	for _, g := range triad.SuperGroups(set) {
		sub := make([]triad.Triad, len(g))
		for j, i := range g {
			sub[j] = set[i]
		}
		res, err := prep.RunGroup(sub)
		if err != nil {
			return nil, err
		}
		out = append(out, res...)
	}
	return out, nil
}

// probeRepeats is how often each direct probe repeats; the median
// counts.
const probeRepeats = 3

func probeSweep(in *sweepInputs, seed uint64, plain *measurement, out map[string]float64) error {
	// synth: charz.Prepare per operator.
	var prepMs float64
	for _, o := range in.Operators {
		var ts []float64
		for r := 0; r < probeRepeats; r++ {
			t := time.Now()
			if _, err := prepare(o, in.Seed); err != nil {
				return err
			}
			ts = append(ts, since(t))
		}
		prepMs += median(ts)
	}
	out["synth.prepare_ms"] = prepMs / float64(len(in.Operators))

	// charz grouped path: RunGroup over each operator's super-groups on
	// a fresh Prepared (stimulus and reference included, as on a cold
	// engine), summed over the four operators of a long op.
	var groupRuns []float64
	var sample *charz.TriadResult
	for r := 0; r < probeRepeats; r++ {
		total := 0.0
		for _, o := range in.Operators {
			prep, err := prepare(o, in.Seed)
			if err != nil {
				return err
			}
			t := time.Now()
			res, err := runGroups(prep)
			if err != nil {
				return err
			}
			total += since(t)
			sample = res[0]
		}
		groupRuns = append(groupRuns, total)
	}
	group := median(groupRuns)
	out["charz.run_group_ms"] = group
	out["charz.ns_per_pattern_point"] = group * 1e6 / float64(patterns*in.points())
	out["engine.point_codec_us"] = codecMicros(sample)

	// charz solo path: RunTriad on a fresh Prepared for the window's
	// first short-op picks.
	var triadMs []float64
	for n := 0; n < 8; n++ {
		o, tr := in.shortPick(seed, 0, n)
		prep, err := prepare(o, in.Seed)
		if err != nil {
			return err
		}
		t := time.Now()
		if _, err := prep.RunTriad(triadOf(tr)); err != nil {
			return err
		}
		triadMs = append(triadMs, since(t))
	}
	out["charz.run_triad_ms"] = mean(triadMs)

	// Pool efficiency: the synth and charz busy time of one long op over
	// the worker-time the untraced long op held the pool for.
	if lp := median(plain.long); lp > 0 {
		out["engine.pool_efficiency"] = (prepMs + group) / (float64(nproc()) * lp)
	}
	return nil
}

// codecMicros times the engine's cache codec on one point: json.Marshal
// plus json.Unmarshal of a charz.TriadResult.
func codecMicros(res *charz.TriadResult) float64 {
	const n = 2000
	t := time.Now()
	for i := 0; i < n; i++ {
		data, err := json.Marshal(res)
		if err != nil {
			return 0
		}
		var back charz.TriadResult
		if err := json.Unmarshal(data, &back); err != nil {
			return 0
		}
	}
	return since(t) * 1000 / n
}

func probeMC(in *mcInputs, out map[string]float64) error {
	tr := triadOf(in.Triad)
	var cal []float64
	for r := 0; r < probeRepeats; r++ {
		t := time.Now()
		c, err := model.NewCalibrator(model.DefaultSpec(), nil)
		if err != nil {
			return err
		}
		if _, err := c.Point(in.prep, tr); err != nil {
			return err
		}
		cal = append(cal, since(t))
	}
	out["model.calibrate_ms"] = median(cal)

	const reps = 8
	base := model.PointSeed(in.Seed, tr.Tclk, tr.Vdd, tr.Vbb)
	for _, name := range mcKernels {
		k, ok := apps.MCKernelByName(name)
		if !ok {
			return fmt.Errorf("probe: unknown kernel %s", name)
		}
		t := time.Now()
		for rep := 0; rep < reps; rep++ {
			s := model.RepSeed(base, rep)
			approx, err := core.NewApproxAdder(in.trained.Model, s)
			if err != nil {
				return err
			}
			ar, err := apps.NewArith(approx)
			if err != nil {
				return err
			}
			if _, err := k.RunRep(s, ar); err != nil {
				return err
			}
		}
		out["apps.ns_per_sample."+name] = since(t) * 1e6 / float64(reps*k.RepSize)
	}
	return nil
}

// writeGoldenFile computes the fig8_cold digest of every spec the
// default seed can produce — the long sweep and every one-point sweep —
// and writes them as the committed golden table.
func writeGoldenFile(path string) error {
	in, err := newSweepInputs(defaultSeed)
	if err != nil {
		return err
	}
	ctx := context.Background()
	e := &env{seed: defaultSeed, workers: nproc()}
	golden := map[string]string{}
	res, _, _, err := runLocal(ctx, e, in.fullSpec())
	if err != nil {
		return err
	}
	golden[fig8Key(true, operator{}, vos.Triad{})] = sweepDigest(res)
	for _, o := range in.Operators {
		for _, tr := range o.Triads {
			res, _, _, err := runLocal(ctx, e, in.pointSpec(o, tr))
			if err != nil {
				return err
			}
			golden[fig8Key(false, o, tr)] = sweepDigest(res)
		}
	}
	data, err := json.MarshalIndent(golden, "", "\t")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

package main

import (
	"fmt"
	"sort"

	"repro/internal/apps"
	"repro/internal/charz"
	"repro/internal/model"
	"repro/internal/synth"
	"repro/internal/triad"
	"repro/vos"
)

// defaultSeed is the workload seed whose fig8_cold digests are
// committed under golden/.
const defaultSeed = 1

// patterns is the stimulus count of every sweep point (the repo's
// default; the paper's 20000 would make one cold op take seconds).
const patterns = 2000

// mix64 is the splitmix64 finalizer: every input the benchmark derives
// from the workload seed goes through it, so inputs are a pure function
// of the seed.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pick derives the choice of one op (client, seq) of a run in [0, n).
func pick(seed uint64, stream, client, seq int, n int) int {
	h := mix64(seed ^ mix64(uint64(stream)<<40^uint64(client)<<32^uint64(seq)))
	return int(h % uint64(n))
}

// operator is one paper operator with its Table III triads.
type operator struct {
	Arch   string
	Width  int
	Triads []vos.Triad
}

func (o operator) name() string { return fmt.Sprintf("%s%d", o.Arch, o.Width) }

// sweepInputs is what the two sweep workloads run: the four operators
// of Fig. 8 at a seed derived from the workload seed.
type sweepInputs struct {
	Seed      uint64
	Operators []operator
}

// sweepSeed maps the workload seed onto a sweep seed.
func sweepSeed(seed uint64) uint64 { return mix64(seed)%1_000_000 + 1 }

// newSweepInputs synthesizes each operator once, as the engine would,
// to read its Table III triads off the timing report.
func newSweepInputs(seed uint64) (*sweepInputs, error) {
	in := &sweepInputs{Seed: sweepSeed(seed)}
	for _, a := range []string{"RCA", "BKA"} {
		for _, w := range []int{8, 16} {
			arch, err := archByName(a)
			if err != nil {
				return nil, err
			}
			prep, err := charz.Prepare(charz.Config{Arch: arch, Width: w, Patterns: patterns, Seed: in.Seed})
			if err != nil {
				return nil, fmt.Errorf("inputs: prepare %s%d: %w", a, w, err)
			}
			op := operator{Arch: a, Width: w}
			for _, tr := range prep.TriadSet() {
				op.Triads = append(op.Triads, vos.Triad(tr))
			}
			in.Operators = append(in.Operators, op)
		}
	}
	return in, nil
}

// points returns the number of points of one full sweep.
func (in *sweepInputs) points() int {
	n := 0
	for _, op := range in.Operators {
		n += len(op.Triads)
	}
	return n
}

// fullSpec is the Fig. 8 sweep of every operator.
func (in *sweepInputs) fullSpec() *vos.Spec {
	return vos.NewSpec().Arches("RCA", "BKA").Widths(8, 16).Patterns(patterns).Seed(in.Seed)
}

// operatorSpec is the paper sweep of one operator.
func (in *sweepInputs) operatorSpec(o operator) *vos.Spec {
	return vos.NewSpec().Arches(o.Arch).Widths(o.Width).Patterns(patterns).Seed(in.Seed)
}

// pointSpec is a one-point explicit-triad sweep.
func (in *sweepInputs) pointSpec(o operator, tr vos.Triad) *vos.Spec {
	return in.operatorSpec(o).Triads(tr)
}

func archByName(name string) (synth.Arch, error) {
	for _, a := range synth.Arches() {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown architecture %q", name)
}

// mcInputs is the mc_1e6 operating point: one Table III triad of the
// 16-bit RCA whose calibrated hardware word-error rate is non-zero.
type mcInputs struct {
	Seed  uint64
	Triad vos.Triad
	// prep and trained are the model-backend operator and the calibrated
	// point, kept for the traced run's direct probes.
	prep    *charz.Prepared
	trained *model.Trained
}

func mcConfig(seed uint64) charz.Config {
	return charz.Config{Arch: synth.ArchRCA, Width: apps.Word, Patterns: patterns, Seed: seed, Backend: charz.BackendModel}
}

// newMCInputs calibrates every Table III triad of the 16-bit RCA and
// keeps the one whose hardware word-error rate is the median of the
// non-zero rates: a mid-range operating point, so that every seed's
// jobs replay a comparable share of erroneous adds.
func newMCInputs(seed uint64) (*mcInputs, error) {
	in := &mcInputs{Seed: sweepSeed(seed)}
	prep, err := charz.Prepare(mcConfig(in.Seed))
	if err != nil {
		return nil, err
	}
	cal, err := model.NewCalibrator(model.DefaultSpec(), nil)
	if err != nil {
		return nil, err
	}
	type point struct {
		tr triad.Triad
		t  *model.Trained
	}
	var erring []point
	for _, tr := range prep.TriadSet() {
		t, err := cal.Point(prep, tr)
		if err != nil {
			return nil, err
		}
		if t.HWWordErrorRate > 0 {
			erring = append(erring, point{tr, t})
		}
	}
	if len(erring) == 0 {
		return nil, fmt.Errorf("inputs: no RCA16 triad with hardware word errors at seed %d", in.Seed)
	}
	sort.SliceStable(erring, func(i, j int) bool { return erring[i].t.HWWordErrorRate < erring[j].t.HWWordErrorRate })
	mid := erring[len(erring)/2]
	in.Triad, in.prep, in.trained = vos.Triad(mid.tr), prep, mid.t
	return in, nil
}

func (in *mcInputs) spec(samples int64) *vos.MCSpec {
	return vos.NewMCSpec("fir").Arch("RCA").Seed(in.Seed).Samples(samples).Triads(in.Triad)
}

// triadOf converts back to the internal triad type for direct probes.
func triadOf(t vos.Triad) triad.Triad { return triad.Triad(t) }

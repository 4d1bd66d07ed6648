package vos

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/synth"
	"repro/internal/triad"
)

// reencode converts an engine wire value to its SDK type through their
// shared JSON schema — the bytes a daemon would serve and Remote decode.
// It is the oracle Local's typed conversions must match.
func reencode(in, out any) error {
	data, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("vos: encode: %w", err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("vos: decode: %w", err)
	}
	return nil
}

// roundTrip is in after the JSON round trip Remote's values take.
func roundTrip[S any](t *testing.T, in any) S {
	t.Helper()
	var out S
	if err := reencode(in, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkConversion fails unless got equals the JSON round trip of in
// under reflect.DeepEqual, and returns that round trip.
func checkConversion[S any](t *testing.T, what string, in any, got S) S {
	t.Helper()
	want := roundTrip[S](t, in)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: typed conversion differs from the JSON round trip:\ngot  %+v\nwant %+v", what, got, want)
	}
	return want
}

// checkUnshared fails unless in still round-trips to before: writes to
// what its conversion returned must not reach the engine's value.
func checkUnshared[S any](t *testing.T, what string, in any, before S) {
	t.Helper()
	if after := roundTrip[S](t, in); !reflect.DeepEqual(after, before) {
		t.Fatalf("%s: writes to the converted value changed the engine's", what)
	}
}

// convGen draws engine values covering the cases a JSON round trip
// treats specially: nil against empty slices, absent pointers, dropped
// fields, awkward floats and timestamps in several zones.
type convGen struct{ r *rand.Rand }

func (g convGen) float() float64 {
	switch g.r.IntN(6) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.SmallestNonzeroFloat64 * float64(g.r.IntN(100))
	case 3:
		return g.r.NormFloat64() * 1e21
	default:
		return g.r.Float64()
	}
}

func (g convGen) floats() []float64 {
	switch g.r.IntN(3) {
	case 0:
		return nil
	case 1:
		return []float64{}
	}
	out := make([]float64, 1+g.r.IntN(17))
	for i := range out {
		out[i] = g.float()
	}
	return out
}

func (g convGen) uints() []uint64 {
	switch g.r.IntN(3) {
	case 0:
		return nil
	case 1:
		return []uint64{}
	}
	out := make([]uint64, 1+g.r.IntN(17))
	for i := range out {
		out[i] = g.r.Uint64()
	}
	return out
}

func (g convGen) ints() []int {
	switch g.r.IntN(3) {
	case 0:
		return nil
	case 1:
		return []int{}
	}
	return g.r.Perm(1 + g.r.IntN(43))
}

// when returns a timestamp with a monotonic reading (time.Now) in a
// random zone, or the zero time.
func (g convGen) when() time.Time {
	now := time.Now().Add(time.Duration(g.r.Int64N(int64(time.Hour))))
	switch g.r.IntN(6) {
	case 0:
		return time.Time{}
	case 1:
		return now
	case 2:
		return now.UTC()
	case 3:
		return now.In(time.FixedZone("CET", 3600))
	case 4:
		return now.In(time.FixedZone("", -(5*3600 + 30*60)))
	default:
		return now.In(time.Local)
	}
}

func (g convGen) triad() triad.Triad {
	return triad.Triad{Tclk: g.float(), Vdd: g.float(), Vbb: g.float()}
}

func (g convGen) fidelity() *core.Fidelity {
	if g.r.IntN(2) == 0 {
		return nil
	}
	return &core.Fidelity{SNRdB: g.float(), DeltaBER: g.float(), BERModel: g.float(), BERHardware: g.float(),
		TrainPatterns: g.r.IntN(4096), EvalPatterns: g.r.IntN(4096), Fingerprint: fmt.Sprintf("%016x", g.r.Uint64())}
}

func (g convGen) point() engine.PointSummary {
	return engine.PointSummary{
		Triad: g.triad(),
		Stats: metrics.ErrorStats{Width: g.r.IntN(33), Words: g.r.Uint64(), FaultyBits: g.r.Uint64(),
			FaultyWords: g.r.Uint64(), PerBit: g.uints(), SumSqErr: g.float(), SumSqSig: g.float(),
			Hamming: g.r.Uint64(), Weighted: g.float()},
		BER: g.float(), WER: g.float(), PerBit: g.floats(), EnergyPerOpFJ: g.float(),
		LateFraction: g.float(), Efficiency: g.float(), FromCache: g.r.IntN(2) == 0, Fidelity: g.fidelity(),
	}
}

func (g convGen) progress() engine.Progress {
	return engine.Progress{TotalPoints: g.r.IntN(200), Completed: g.r.IntN(200), CacheHits: g.r.IntN(200), Executed: g.r.IntN(200)}
}

// status returns a job state with the error text a job in it carries.
func (g convGen) status() (engine.Status, string) {
	switch g.r.IntN(5) {
	case 0:
		return engine.StatusPending, ""
	case 1:
		return engine.StatusRunning, ""
	case 2:
		return engine.StatusFailed, "engine: prepare 8-bit RCA: synthesis failed"
	case 3:
		return engine.StatusCanceled, "context canceled"
	}
	return engine.StatusDone, ""
}

func (g convGen) sweep() engine.Sweep {
	st, msg := g.status()
	sw := engine.Sweep{ID: fmt.Sprintf("s-%06d", g.r.IntN(1e6)), Status: st, Error: msg,
		Request: engine.Request{Arches: []string{"RCA"}, Widths: []int{8}, Patterns: 40},
		Created: g.when(), Started: g.when(), Finished: g.when(), Progress: g.progress()}
	switch g.r.IntN(3) {
	case 0:
	case 1:
		sw.Results = []engine.OperatorResult{}
	default:
		for range 1 + g.r.IntN(3) {
			op := engine.OperatorResult{Bench: "8-bit RCA", Arch: "RCA", Width: 8, SortedIdx: g.ints()}
			if g.r.IntN(2) == 0 {
				op.Report = &synth.Report{Name: "rca8", GateCount: g.r.IntN(500), Area: g.float(),
					CriticalPath: g.float(), TrueCriticalPath: g.float(), TotalPower: g.float(),
					DynamicPower: g.float(), LeakagePower: g.float(), EnergyPerOp: g.float()}
			}
			switch g.r.IntN(3) {
			case 0:
			case 1:
				op.Points = []engine.PointSummary{}
			default:
				for range 1 + g.r.IntN(43) {
					op.Points = append(op.Points, g.point())
				}
			}
			sw.Results = append(sw.Results, op)
		}
	}
	return sw
}

func (g convGen) sweepEvent() engine.SweepEvent {
	st, msg := g.status()
	ev := engine.SweepEvent{Type: engine.EventProgress, SweepID: "s-000001", Status: st, Progress: g.progress(), Error: msg}
	switch g.r.IntN(3) {
	case 0:
		p := g.point()
		ev.Type, ev.Bench, ev.Arch, ev.Width, ev.Point = engine.EventPoint, "4-bit BKA", "BKA", 4, &p
	case 1:
		ev.Type = engine.EventDone
	}
	return ev
}

func (g convGen) mcPoint() engine.MCPoint {
	p := engine.MCPoint{Kernel: "fir", Metric: "snr", Triad: g.triad(), Samples: g.r.Int64(), Reps: g.r.IntN(1000),
		Mean: g.float(), Min: g.float(), Max: g.float(), RepMetrics: g.floats(), ErrHist: g.uints(),
		Outputs: g.r.Int64(), ErrorOutputs: g.r.Int64(), ErrorRate: g.float(), EnergyPerOpFJ: g.float(),
		Fidelity: g.fidelity()}
	if g.r.IntN(2) == 0 {
		p.RepLo, p.RepHi = g.r.IntN(32), 32+g.r.IntN(32)
	}
	return p
}

func (g convGen) mcJob() engine.MCJob {
	st, msg := g.status()
	job := engine.MCJob{ID: fmt.Sprintf("mc-%06d", g.r.IntN(1e6)), Status: st, Error: msg,
		Request: engine.MCRequest{Kernels: []string{"fir"}, RepLo: 1, RepHi: 2},
		Created: g.when(), Started: g.when(), Finished: g.when(), Progress: g.progress()}
	switch g.r.IntN(3) {
	case 0:
	case 1:
		job.Points = []engine.MCPoint{}
	default:
		for range 1 + g.r.IntN(8) {
			job.Points = append(job.Points, g.mcPoint())
		}
	}
	return job
}

func (g convGen) mcEvent() engine.MCEvent {
	st, msg := g.status()
	ev := engine.MCEvent{Type: engine.EventProgress, JobID: "mc-000001", Status: st, Progress: g.progress(), Error: msg}
	if g.r.IntN(2) == 0 {
		p := g.mcPoint()
		ev.Type, ev.Point = engine.EventPoint, &p
	}
	return ev
}

// TestTypedConversionMatchesReencode pins Local's typed conversions to
// the JSON round trip Remote's values go through, over random sweep and
// Monte Carlo snapshots (pending, running, done, failed and canceled,
// with and without results) and events, and checks the converted values
// share no memory with the engine's.
func TestTypedConversionMatchesReencode(t *testing.T) {
	g := convGen{rand.New(rand.NewPCG(1, 2))}
	for i := range 300 {
		sw := g.sweep()
		got := sweepResult(sw)
		want := checkConversion(t, fmt.Sprintf("sweep %d", i), sw, *got)
		for _, op := range got.Operators {
			scribble(op.SortedIdx, op.Report)
			for _, p := range op.Points {
				scribble(p.PerBit, p.Stats.PerBit, p.Fidelity)
			}
		}
		checkUnshared(t, fmt.Sprintf("sweep %d", i), sw, want)

		ev := g.sweepEvent()
		gotEv := sweepEvent(ev)
		wantEv := checkConversion(t, fmt.Sprintf("sweep event %d", i), ev, gotEv)
		if gotEv.Point != nil {
			scribble(gotEv.Point.PerBit, gotEv.Point.Stats.PerBit, gotEv.Point.Fidelity)
		}
		checkUnshared(t, fmt.Sprintf("sweep event %d", i), ev, wantEv)

		job := g.mcJob()
		gotJob := mcResult(job)
		wantJob := checkConversion(t, fmt.Sprintf("mc job %d", i), job, *gotJob)
		for _, p := range gotJob.Points {
			scribble(p.RepMetrics, p.ErrHist, p.Fidelity)
		}
		checkUnshared(t, fmt.Sprintf("mc job %d", i), job, wantJob)

		mev := g.mcEvent()
		gotMev := mcEvent(mev)
		wantMev := checkConversion(t, fmt.Sprintf("mc event %d", i), mev, gotMev)
		if gotMev.Point != nil {
			scribble(gotMev.Point.RepMetrics, gotMev.Point.ErrHist, gotMev.Point.Fidelity)
		}
		checkUnshared(t, fmt.Sprintf("mc event %d", i), mev, wantMev)

		stats := engine.CacheStats{MemHits: g.r.Uint64(), DiskHits: g.r.Uint64(), Misses: g.r.Uint64(),
			Stores: g.r.Uint64(), WriteErrors: g.r.Uint64(), CorruptEntries: g.r.Uint64(), MemEntries: g.r.IntN(1e6),
			PeerHits: g.r.Uint64(), PeerMisses: g.r.Uint64(), PeerErrors: g.r.Uint64(), PeerPushes: g.r.Uint64(),
			PeerPushDrops: g.r.Uint64(), PeerPushQueueDepth: g.r.IntN(64), PeerPushQueueCap: g.r.IntN(64),
			DiskDegraded: g.r.IntN(2) == 0, DegradedWrites: g.r.Uint64(), GroupedPoints: g.r.Uint64()}
		checkConversion(t, fmt.Sprintf("cache stats %d", i), stats, cacheStats(stats))
	}
}

// scribble overwrites what each converted slice or pointer holds, so a
// conversion that aliased the engine's memory shows up in the next one.
func scribble(vals ...any) {
	for _, v := range vals {
		switch v := v.(type) {
		case []int:
			for i := range v {
				v[i] = -1
			}
		case []float64:
			for i := range v {
				v[i] = -1
			}
		case []uint64:
			for i := range v {
				v[i] = 1
			}
		case *Report:
			if v != nil {
				v.Area = -1
			}
		case *Fidelity:
			if v != nil {
				v.SNRdB = -1
			}
		}
	}
}

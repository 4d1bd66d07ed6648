// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablation benches for the design choices DESIGN.md calls
// out and micro-benchmarks of the hot paths.
//
// The experiment benches run reduced pattern counts so `go test -bench=.`
// finishes in minutes; the cmd/ tools run the full 20 000-vector versions.
// Each bench prints the same rows/series the paper reports (via b.Logf on
// the first iteration), and reports domain metrics (BER, energy, SNR)
// through testing.B.ReportMetric.
package repro

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/carry"
	"repro/internal/cell"
	"repro/internal/charz"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine/journal"
	"repro/internal/fdsoi"
	"repro/internal/model"
	"repro/internal/netlist"
	"repro/internal/patterns"
	"repro/internal/rcsim"
	"repro/internal/sim"
	"repro/internal/speculation"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/triad"
	"repro/vos"
)

// benchPatterns is the per-triad stimulus count used by the experiment
// benches (the paper uses 20 000; cmd/voschar reproduces that).
const benchPatterns = 2000

var paperBenches = []struct {
	arch  synth.Arch
	width int
}{
	{synth.ArchRCA, 8},
	{synth.ArchBKA, 8},
	{synth.ArchRCA, 16},
	{synth.ArchBKA, 16},
}

// BenchmarkTableII regenerates the synthesis-results table: area, power
// and critical path of the four adders.
func BenchmarkTableII(b *testing.B) {
	lib := cell.Default28nmLVT()
	proc := fdsoi.Default()
	for i := 0; i < b.N; i++ {
		var rows []string
		for _, bd := range paperBenches {
			nl, err := synth.NewAdder(bd.arch, synth.AdderConfig{Width: bd.width})
			if err != nil {
				b.Fatal(err)
			}
			rep, err := synth.Synthesize(nl, lib, proc, 2000, 1)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, fmt.Sprintf("%d-bit %s: area=%.1fµm² power=%.1fµW cp=%.3fns",
				bd.width, bd.arch, rep.Area, rep.TotalPower, rep.CriticalPath))
		}
		if i == 0 {
			b.Logf("Table II:\n%s", strings.Join(rows, "\n"))
		}
	}
}

// BenchmarkTableIII regenerates the operating-triad table: four clocks per
// adder, Vdd 1.0→0.4, Vbb {0, ±2} — 43 triads each.
func BenchmarkTableIII(b *testing.B) {
	lib := cell.Default28nmLVT()
	proc := fdsoi.Default()
	for i := 0; i < b.N; i++ {
		var rows []string
		for _, bd := range paperBenches {
			nl, err := synth.NewAdder(bd.arch, synth.AdderConfig{Width: bd.width})
			if err != nil {
				b.Fatal(err)
			}
			rep, err := synth.Synthesize(nl, lib, proc, 500, 1)
			if err != nil {
				b.Fatal(err)
			}
			clocks := triad.PaperClockRatios(bd.arch.String(), bd.width).Clocks(rep.CriticalPath)
			set := triad.Set(triad.DefaultSweep(clocks))
			if len(set) != 43 {
				b.Fatalf("triad set = %d, want 43", len(set))
			}
			rows = append(rows, fmt.Sprintf("%d-bit %s: Tclk=%.3g/%.3g/%.3g/%.3g ns, Vdd 1.0→0.4, Vbb 0,±2 (%d triads)",
				bd.width, bd.arch, clocks[0], clocks[1], clocks[2], clocks[3], len(set)))
		}
		if i == 0 {
			b.Logf("Table III:\n%s", strings.Join(rows, "\n"))
		}
	}
}

// BenchmarkFig5 regenerates the per-output-bit BER distribution of the
// 8-bit RCA as Vdd scales 0.8→0.5 V at the synthesis clock. Like
// BenchmarkFig8 it runs through vos.Local: the first iteration simulates
// the four points, every further one is served from the cache.
func BenchmarkFig5(b *testing.B) {
	cli, err := vos.NewLocal(vos.LocalOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	spec := vos.NewSpec().Arches("RCA").Widths(8).Patterns(benchPatterns).Seed(1).
		VddGrid([]float64{0.8, 0.7, 0.6, 0.5}, nil)
	for i := 0; i < b.N; i++ {
		res, err := cli.Run(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			pts := res.Operator("RCA", 8).Fig5()
			var rows []string
			for _, p := range pts {
				var bits []string
				for _, v := range p.PerBit {
					bits = append(bits, fmt.Sprintf("%4.1f", v*100))
				}
				rows = append(rows, fmt.Sprintf("%.1fV: [%s] BER=%.1f%%",
					p.Vdd, strings.Join(bits, " "), p.BER*100))
			}
			b.Logf("Fig 5 (BER%% per bit, LSB→cout):\n%s", strings.Join(rows, "\n"))
			b.ReportMetric(pts[len(pts)-1].BER*100, "BER%@0.5V")
		}
	}
}

// BenchmarkTableI regenerates a carry-propagation probability table for a
// 4-bit modified adder trained on over-scaled hardware.
func BenchmarkTableI(b *testing.B) {
	cfg := charz.Config{Arch: synth.ArchRCA, Width: 4, Patterns: 200, Seed: 1}
	res, err := charz.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var pick *charz.TriadResult
	for i := range res.Triads {
		if ber := res.Triads[i].BER(); ber > 0.05 && ber < 0.3 {
			pick = &res.Triads[i]
			break
		}
	}
	if pick == nil {
		b.Fatal("no mid-BER triad")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hw, err := charz.NewEngineAdder(res.Netlist, cfg, pick.Triad)
		if err != nil {
			b.Fatal(err)
		}
		gen, err := patterns.NewUniform(4, 1)
		if err != nil {
			b.Fatal(err)
		}
		table, err := core.Train(hw, gen, 4000, core.MetricMSE)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("Table I (4-bit adder at %s, BER %.1f%%):\n%s",
				pick.Triad.Label(), pick.BER()*100, table)
		}
	}
}

// BenchmarkFig7 regenerates the model-accuracy study: SNR and normalized
// Hamming distance of the statistical model per calibration metric, for
// the 8-bit adders (16-bit runs are in cmd/vosmodel).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var rows []string
		for _, bd := range paperBenches[:2] {
			cfg := charz.Config{Arch: bd.arch, Width: bd.width, Patterns: 500, Seed: 1}
			res, err := charz.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			study, err := charz.Fig7(res, charz.Fig7Config{TrainPatterns: 3000, EvalPatterns: 3000, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, fmt.Sprintf(
				"%s: SNR(dB) MSE=%.1f Ham=%.1f WHam=%.1f | normHam MSE=%.4f Ham=%.4f WHam=%.4f (%d triads)",
				study.Bench,
				study.MeanSNRdB[core.MetricMSE], study.MeanSNRdB[core.MetricHamming],
				study.MeanSNRdB[core.MetricWeightedHamming],
				study.MeanNormHamming[core.MetricMSE], study.MeanNormHamming[core.MetricHamming],
				study.MeanNormHamming[core.MetricWeightedHamming], study.TriadsUsed))
		}
		if i == 0 {
			b.Logf("Fig 7:\n%s", strings.Join(rows, "\n"))
		}
	}
}

// BenchmarkFig8 regenerates the BER vs energy/operation sweep across all
// 43 triads for each adder. The sweep runs through the public vos SDK
// (the same path voschar and vosd clients take) on a fresh vos.Local
// per iteration, so every iteration is a cold sweep that synthesizes the
// operator and simulates all 43 points.
func BenchmarkFig8(b *testing.B) {
	for _, bd := range paperBenches {
		bd := bd
		b.Run(fmt.Sprintf("%s%d", bd.arch, bd.width), func(b *testing.B) {
			spec := vos.NewSpec().Arches(bd.arch.String()).Widths(bd.width).
				Patterns(benchPatterns).Seed(1)
			var executions uint64
			for i := 0; i < b.N; i++ {
				cli, err := vos.NewLocal(vos.LocalOptions{})
				if err != nil {
					b.Fatal(err)
				}
				res, err := cli.Run(context.Background(), spec)
				if err != nil {
					b.Fatal(err)
				}
				stats, err := cli.CacheStats(context.Background())
				cli.Close()
				if err != nil {
					b.Fatal(err)
				}
				executions = stats.Executions
				if i == 0 {
					op := res.Operator(bd.arch.String(), bd.width)
					var rows []string
					for _, pt := range op.Fig8() {
						rows = append(rows, fmt.Sprintf("%-14s BER=%6.2f%% E/op=%6.1ffJ eff=%5.1f%%",
							pt.Triad.Label(), pt.BER*100, pt.EnergyPerOpFJ, pt.Efficiency*100))
					}
					b.Logf("Fig 8 %s:\n%s", op.Bench, strings.Join(rows, "\n"))
					b.ReportMetric(op.Nominal().EnergyPerOpFJ, "fJ/op@nominal")
				}
			}
			b.ReportMetric(float64(executions), "sim-points")
		})
	}
}

// BenchmarkFig8Grouped measures the cold grouped sweep at the charz
// level — no engine, no cache, every iteration simulates from scratch —
// so the one-simulation-per-electrical-point hot path is tracked
// without SDK or serialization overhead. The 43-triad set runs as 2
// cross-voltage super-groups, one per body-bias family: per K×64-pattern
// chunk, one fresh trace anchors the family, each further electrical
// point down its Vdd ladder retimes the anchor (or is traced afresh where
// the retime's order check fails), and each walk captures its point's
// clocks.
func BenchmarkFig8Grouped(b *testing.B) {
	for _, bd := range paperBenches {
		bd := bd
		b.Run(fmt.Sprintf("%s%d", bd.arch, bd.width), func(b *testing.B) {
			cfg := charz.Config{Arch: bd.arch, Width: bd.width, Patterns: benchPatterns, Seed: 1}
			for i := 0; i < b.N; i++ {
				res, err := charz.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(len(res.Triads)), "triads")
					b.ReportMetric(res.NominalEnergyFJ, "fJ/op@nominal")
				}
			}
		})
	}
}

// BenchmarkFig8ColdPoint is perfbench fig8_cold's short op without the
// engine: each iteration prepares each of the four paper operators from
// scratch (generation, then synthesis with its random-vector activity
// estimate) and runs one Table III triad, the middle one of the set, on
// the fresh Prepared, which builds the stimulus, its zero-delay
// reference and lane images before simulating the point. Those
// input-side stages weigh as much as the point's timed simulation, so
// this tracks what the grouped Fig8Grouped amortizes over 43 triads.
func BenchmarkFig8ColdPoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, bd := range paperBenches {
			prep, err := charz.Prepare(charz.Config{Arch: bd.arch, Width: bd.width, Patterns: benchPatterns, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			set := prep.TriadSet()
			if _, err := prep.RunTriad(set[len(set)/2]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEngineWarmSweep measures a fully cache-warm 43-triad sweep
// through the SDK — the steady-state cost a vosd client pays for a
// repeated operating-point query (deserialization only, no simulation).
func BenchmarkEngineWarmSweep(b *testing.B) {
	benchEngineWarmSweep(b, vos.LocalOptions{})
}

// BenchmarkEngineWarmSweepJournal is the same warm submit with the
// write-ahead journal enabled: the delta against BenchmarkEngineWarmSweep
// is the full durability tax of a cache-served sweep (accept and
// terminal records fsync'd, per-point records riding the OS cache).
// Gated in CI so the journal's overhead cannot silently grow.
func BenchmarkEngineWarmSweepJournal(b *testing.B) {
	benchEngineWarmSweep(b, vos.LocalOptions{JournalDir: b.TempDir()})
}

func benchEngineWarmSweep(b *testing.B, opts vos.LocalOptions) {
	cli, err := vos.NewLocal(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	spec := vos.NewSpec().Arches("RCA").Widths(8).Patterns(benchPatterns).Seed(1)
	if _, err := cli.Run(context.Background(), spec); err != nil {
		b.Fatal(err)
	}
	stats, err := cli.CacheStats(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	warmed := stats.Executions
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Run(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if stats, err = cli.CacheStats(context.Background()); err != nil {
		b.Fatal(err)
	} else if stats.Executions != warmed {
		b.Fatalf("warm sweep simulated %d extra points", stats.Executions-warmed)
	}
}

// BenchmarkClusterWarmLookup measures the cluster serving path: one
// cached point fetched through vos.Remote from a node of a warm 3-node
// cluster (submit, event stream, results — the full HTTP lifecycle, no
// simulation). This is the latency floor every warm shard lookup and
// peer-cache fill pays, gated in CI alongside the sim kernels.
func BenchmarkClusterWarmLookup(b *testing.B) {
	benchClusterWarmLookup(b, cluster.LocalOptions{Workers: 2})
}

// BenchmarkClusterWarmLookupJournal is the same warm lookup against a
// fully journaled cluster: every member runs with a write-ahead journal,
// so each op additionally pays the accept/terminal record fsyncs on the
// serving node. The delta against BenchmarkClusterWarmLookup is the
// journal's toll on the warm serving path, budgeted at under 5%.
func BenchmarkClusterWarmLookupJournal(b *testing.B) {
	benchClusterWarmLookup(b, cluster.LocalOptions{Workers: 2, JournalRoot: b.TempDir()})
}

func benchClusterWarmLookup(b *testing.B, opts cluster.LocalOptions) {
	// One explicit triad: each iteration is a single cached point fetch.
	benchClusterWarm(b, opts, func(warm *vos.Result) (touch, timed *vos.Spec) {
		spec := rca8Spec().Triads(warm.Operators[0].Points[0].Triad)
		return spec, spec
	})
}

// BenchmarkClusterWarmSweep measures a warm one-operator Fig. 8 sweep
// through the cluster: a declarative 43-triad RCA8 sweep through
// vos.Remote, submitted to a node whose memory tier holds every point —
// as on a warm fleet, where an explicit sweep of the same triads has
// filled the coordinator (perfbench serve_warm's set-up does the same).
// No point is simulated, and the coordinator serves the held groups
// itself instead of sending them to their ring owners.
func BenchmarkClusterWarmSweep(b *testing.B) {
	benchClusterWarm(b, cluster.LocalOptions{Workers: 2}, func(warm *vos.Result) (touch, timed *vos.Spec) {
		var trs []vos.Triad
		for _, p := range warm.Operators[0].Points {
			trs = append(trs, p.Triad)
		}
		return rca8Spec().Triads(trs...), rca8Spec()
	})
}

func rca8Spec() *vos.Spec {
	return vos.NewSpec().Arches("RCA").Widths(8).Patterns(benchPatterns).Seed(1)
}

// benchClusterWarm boots a 3-node cluster, fills it cold with a
// declarative RCA8 sweep through node 0 (sharded to the ring owners),
// runs the touch spec once on node 0 (settling its peer-cache fills),
// and times the timed spec through vos.Remote against node 0, failing if
// any iteration simulated a point.
func benchClusterWarm(b *testing.B, opts cluster.LocalOptions, specs func(warm *vos.Result) (touch, timed *vos.Spec)) {
	lc, err := cluster.StartLocal(3, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer lc.Close()
	cli, err := vos.NewRemote(lc.URLs()[0], vos.RemoteOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()

	ctx := context.Background()
	warm, err := cli.Run(ctx, rca8Spec())
	if err != nil {
		b.Fatal(err)
	}
	touch, spec := specs(warm)
	if _, err := cli.Run(ctx, touch); err != nil {
		b.Fatal(err)
	}
	executions := func() uint64 {
		var n uint64
		for _, m := range lc.Members() {
			n += m.Node.Engine().Executions()
		}
		return n
	}
	warmed := executions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Run(ctx, spec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if n := executions(); n != warmed {
		b.Fatalf("warm run simulated %d extra points", n-warmed)
	}
}

// BenchmarkJournalAppend measures the write-ahead journal's append
// path with a representative per-point lifecycle record — the
// durability tax every journaled job pays. The unsynced case is the
// per-point hot path (sweep.point records ride the OS cache; the
// content-addressed result cache holds the data), the synced case is
// the accept/terminal path that must reach stable storage before the
// record counts as durable. Gated in CI alongside the sim kernels.
func BenchmarkJournalAppend(b *testing.B) {
	payload := []byte(`{"type":"sweep.point","id":"s-000042","key":"a3f9c2e417b08d5512f4a6b8c9d0e1f2","bench":"fig8","arch":"RCA","width":8}`)
	for _, bc := range []struct {
		name string
		sync bool
	}{{"unsynced", false}, {"synced", true}} {
		b.Run(bc.name, func(b *testing.B) {
			j, recs, err := journal.Open(b.TempDir(), journal.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if len(recs) != 0 {
				b.Fatalf("fresh journal replayed %d records", len(recs))
			}
			defer j.Close()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := j.Append(payload, bc.sync); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMonteCarloPoint measures the Monte Carlo serving path: one
// (kernel, operating point) cell of a /v1/mc job on the calibrated
// model backend through vos.Local, at a fixed 64Ki-sample budget (32
// reps). The point is RCA16 at (0.262 ns, 0.9 V, 0 V), a Table III
// triad whose calibrated hardware word-error rate is non-zero, so the
// replay's draws truncate carry chains. Calibration is warmed before
// timing, so the number is the model-adder replay cost itself — the
// per-point rate that makes the paper-scale 1e6-sample budget
// tractable. Reps are never cached: every iteration recomputes all 32.
func BenchmarkMonteCarloPoint(b *testing.B) {
	cli, err := vos.NewLocal(vos.LocalOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()
	spec := vos.NewMCSpec("fir").Seed(1).Samples(64 * 1024).
		Triads(vos.Triad{Tclk: 0.262, Vdd: 0.9})
	if _, err := cli.RunMC(ctx, spec); err != nil {
		b.Fatal(err) // warm synthesis + calibration before timing
	}
	b.ResetTimer()
	var last *vos.MCResult
	for i := 0; i < b.N; i++ {
		res, err := cli.RunMC(ctx, spec)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	pt := last.Points[0]
	b.ReportMetric(float64(pt.Samples)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
	b.ReportMetric(pt.Mean, "dB")
}

// mcRepBatchSamples is the input samples one BenchmarkMCRep iteration
// replays, in whole reps: 16 fir, blur or sobel reps, or 128 kmeans
// reps. A sample of the mc group's ten iterations then spans about
// 75–310 ms of reps on 2 vCPUs, however cheap a kernel's rep is.
const mcRepBatchSamples = 1 << 15

// mcRepModel calibrates BenchmarkMonteCarloPoint's operating point once
// per process, as a /v1/mc job's engine does: RCA16 at (0.262 ns, 0.9 V,
// 0 V) under the job's default operator configuration.
var mcRepModel = sync.OnceValues(func() (*core.Model, error) {
	prep, err := charz.Prepare(charz.Config{Arch: synth.ArchRCA, Width: apps.Word, Patterns: 2000, Seed: 1, Backend: charz.BackendModel})
	if err != nil {
		return nil, err
	}
	cal, err := model.NewCalibrator(model.DefaultSpec(), nil)
	if err != nil {
		return nil, err
	}
	t, err := cal.Point(prep, triad.Triad{Tclk: 0.262, Vdd: 0.9})
	if err != nil {
		return nil, err
	}
	return t.Model, nil
})

// BenchmarkMCRep times one kernel's Monte Carlo reps the way a pool
// worker runs them (apps.MCKernel.RunRep on a fresh model adder and
// Arith per rep) at BenchmarkMonteCarloPoint's calibrated point, with
// no engine, HTTP or merge around them. Calibration runs before timing.
// Each iteration replays the same rep seeds, mcRepBatchSamples input
// samples' worth; ns/sample is per input sample of the kernel.
func BenchmarkMCRep(b *testing.B) {
	m, err := mcRepModel()
	if err != nil {
		b.Fatal(err)
	}
	base := model.PointSeed(1, 0.262, 0.9, 0)
	for _, k := range apps.MCKernels() {
		batch := mcRepBatchSamples / k.RepSize
		b.Run(k.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for rep := range batch {
					seed := model.RepSeed(base, rep)
					approx, err := core.NewApproxAdder(m, seed)
					if err != nil {
						b.Fatal(err)
					}
					ar, err := apps.NewArith(approx)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := k.RunRep(seed, ar); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*mcRepBatchSamples), "ns/sample")
		})
	}
}

// BenchmarkTableIV regenerates the efficiency-per-BER-band summary for all
// four adders. Like BenchmarkFig8 it runs through vos.Local: the first
// iteration simulates the four sweeps, every further one is served from
// the cache.
func BenchmarkTableIV(b *testing.B) {
	cli, err := vos.NewLocal(vos.LocalOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	spec := vos.NewSpec().Arches("RCA", "BKA").Widths(8, 16).Patterns(benchPatterns).Seed(1)
	for i := 0; i < b.N; i++ {
		res, err := cli.Run(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		var rows []string
		for _, bd := range paperBenches {
			op := res.Operator(bd.arch.String(), bd.width)
			for _, s := range op.Table4() {
				if s.Count == 0 {
					rows = append(rows, fmt.Sprintf("%-10s %-10s: no triads", op.Bench, s.Band))
					continue
				}
				rows = append(rows, fmt.Sprintf("%-10s %-10s: %2d triads, max eff %5.1f%% at BER %4.1f%% (%s)",
					op.Bench, s.Band, s.Count, s.MaxEff*100, s.BERAtMaxEff*100, s.Best.Label()))
			}
		}
		if i == 0 {
			b.Logf("Table IV:\n%s", strings.Join(rows, "\n"))
		}
	}
}

// BenchmarkSpeculation reproduces the §V dynamic-switching narrative: a
// governor holding an 8%-BER margin should land near the 0.4 V FBB triad
// and save well beyond the accurate mode's energy.
func BenchmarkSpeculation(b *testing.B) {
	cfg := charz.Config{Arch: synth.ArchRCA, Width: 8, Patterns: benchPatterns, Seed: 1}
	res, err := charz.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	budgets := []float64{0, 0.01, 0.05, 0.15}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ladder []speculation.Operator
		seen := map[string]bool{}
		for _, budget := range budgets {
			best, bestE := -1, 1e18
			for j, tr := range res.Triads {
				if tr.BER() <= budget && tr.EnergyPerOpFJ < bestE {
					best, bestE = j, tr.EnergyPerOpFJ
				}
			}
			tr := res.Triads[best]
			if seen[tr.Triad.Label()] {
				continue
			}
			seen[tr.Triad.Label()] = true
			hw, err := charz.NewEngineAdder(res.Netlist, cfg, tr.Triad)
			if err != nil {
				b.Fatal(err)
			}
			ladder = append(ladder, speculation.Operator{
				Triad: tr.Triad, Adder: hw,
				EnergyPerOpFJ: tr.EnergyPerOpFJ, CharBER: tr.BER(),
			})
		}
		gov, err := speculation.New(ladder, speculation.DefaultConfig(0.08))
		if err != nil {
			b.Fatal(err)
		}
		gen, err := patterns.NewUniform(8, 7)
		if err != nil {
			b.Fatal(err)
		}
		trace := gov.Run(20000, func() (uint64, uint64) { return gen.Next() })
		if i == 0 {
			b.Logf("governed: final=%s BER=%.2f%% E/op=%.1ffJ (nominal %.1ffJ), %d switches",
				trace.Final.Label(), trace.ObservedBER*100, trace.MeanEnergy,
				res.NominalEnergyFJ, trace.Switches)
			b.ReportMetric(trace.MeanEnergy, "fJ/op")
			b.ReportMetric(trace.ObservedBER*100, "BER%")
		}
	}
}

// BenchmarkApps ties circuit BER to application quality: Gaussian blur
// PSNR and FIR SNR with a trained model of a mid-BER triad.
func BenchmarkApps(b *testing.B) {
	cfg := charz.Config{Arch: synth.ArchRCA, Width: apps.Word, Patterns: 1000, Seed: 1}
	res, err := charz.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var pick *charz.TriadResult
	for i := range res.Triads {
		if ber := res.Triads[i].BER(); ber > 0.01 && ber < 0.08 {
			pick = &res.Triads[i]
			break
		}
	}
	if pick == nil {
		b.Fatal("no mid-BER triad")
	}
	hw, err := charz.NewEngineAdder(res.Netlist, cfg, pick.Triad)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := patterns.NewUniform(apps.Word, 5)
	if err != nil {
		b.Fatal(err)
	}
	model, err := core.TrainModel(hw, gen, 6000, core.MetricMSE, pick.Triad.Label())
	if err != nil {
		b.Fatal(err)
	}
	exactAr, _ := apps.NewArith(core.ExactAdder{W: apps.Word})
	img := apps.Synthetic(64, 48, 3)
	refBlur := apps.GaussianBlur3(img, exactAr)
	sig := apps.TwoTone(2048, 5)
	refFIR := apps.BinomialFIR().Apply(sig, exactAr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		approx, err := core.NewApproxAdder(model, 17)
		if err != nil {
			b.Fatal(err)
		}
		ar, err := apps.NewArith(approx)
		if err != nil {
			b.Fatal(err)
		}
		blur := apps.GaussianBlur3(img, ar)
		fir := apps.BinomialFIR().Apply(sig, ar)
		if i == 0 {
			psnr := apps.PSNR(refBlur, blur)
			snr := apps.SignalSNR(refFIR, fir)
			b.Logf("triad %s (adder BER %.2f%%): blur PSNR=%.1fdB, FIR SNR=%.1fdB",
				pick.Triad.Label(), pick.BER()*100, psnr, snr)
			b.ReportMetric(psnr, "blurPSNRdB")
			b.ReportMetric(snr, "firSNRdB")
		}
	}
}

// --- Ablation benches (design choices called out in DESIGN.md §6) ---

// BenchmarkAblationPatternBias sweeps the stimulus carry-propagate
// probability: longer chains (higher p) must raise the observed BER at a
// fixed VOS triad.
func BenchmarkAblationPatternBias(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var rows []string
		for _, p := range []float64{0.2, 0.5, 0.8} {
			cfg := charz.Config{
				Arch: synth.ArchRCA, Width: 8, Patterns: benchPatterns,
				Seed: 1, PropagateP: p,
			}
			res, err := charz.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			// Mean BER over erroneous triads.
			var sum float64
			n := 0
			for _, tr := range res.Triads {
				if tr.BER() > 0 {
					sum += tr.BER()
					n++
				}
			}
			rows = append(rows, fmt.Sprintf("P(propagate)=%.1f: mean erroneous-triad BER=%.2f%% (%d triads)",
				p, sum/float64(n)*100, n))
		}
		if i == 0 {
			b.Logf("pattern-bias ablation:\n%s", strings.Join(rows, "\n"))
		}
	}
}

// BenchmarkAblationSettleVsStream compares the two-vector protocol (full
// settling between launches) against free-running streaming capture at an
// overclocked triad.
func BenchmarkAblationSettleVsStream(b *testing.B) {
	lib := cell.Default28nmLVT()
	proc := fdsoi.Default()
	nl, err := synth.RCA(synth.AdderConfig{Width: 8})
	if err != nil {
		b.Fatal(err)
	}
	op := fdsoi.OperatingPoint{Vdd: 0.7}
	tclk := 0.183
	for i := 0; i < b.N; i++ {
		count := func(stream bool) float64 {
			eng := sim.New(nl, lib, proc, op)
			stim := netlist.CompileStimulus(nl)
			if err := eng.ResetDense(stim.Values()); err != nil {
				b.Fatal(err)
			}
			step := eng.StepDense
			if stream {
				step = eng.StreamStepDense
			}
			rng := rand.New(rand.NewPCG(9, 9))
			errs, n := 0, 3000
			for k := 0; k < n; k++ {
				a, bb := rng.Uint64()&0xff, rng.Uint64()&0xff
				stim.MustSet(synth.PortA, a)
				stim.MustSet(synth.PortB, bb)
				res, err := step(stim.Values(), tclk)
				if err != nil {
					b.Fatal(err)
				}
				s, _ := res.CapturedWord(nl, synth.PortSum)
				co, _ := res.CapturedWord(nl, synth.PortCout)
				if s|co<<8 != a+bb {
					errs++
				}
			}
			return float64(errs) / float64(n)
		}
		settle, stream := count(false), count(true)
		if i == 0 {
			b.Logf("word error rate at (%.3f ns, %.1f V): settle=%.2f%% stream=%.2f%%",
				tclk, op.Vdd, settle*100, stream*100)
		}
	}
}

// BenchmarkAblationMultiplierVOS applies the VOS characterization to the
// array multiplier (operator-set extension): its deep carry-save array
// fails at milder over-scaling than the adders.
func BenchmarkAblationMultiplierVOS(b *testing.B) {
	lib := cell.Default28nmLVT()
	proc := fdsoi.Default()
	nl, err := synth.ArrayMultiplier(synth.MultiplierConfig{Width: 8})
	if err != nil {
		b.Fatal(err)
	}
	an := sta.Analyze(nl, lib, proc, proc.Nominal())
	tclk := an.CriticalDelay * synth.STAMargin
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rows []string
		for _, vdd := range []float64{1.0, 0.8, 0.7, 0.6} {
			eng := sim.New(nl, lib, proc, fdsoi.OperatingPoint{Vdd: vdd})
			stim := netlist.CompileStimulus(nl)
			if err := eng.ResetDense(stim.Values()); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(11, 11))
			faulty, total := 0, 0
			var energy float64
			n := 800
			for k := 0; k < n; k++ {
				a, bb := rng.Uint64()&0xff, rng.Uint64()&0xff
				stim.MustSet(synth.PortA, a)
				stim.MustSet(synth.PortB, bb)
				res, err := eng.StepDense(stim.Values(), tclk)
				if err != nil {
					b.Fatal(err)
				}
				p, _ := res.CapturedWord(nl, synth.PortProd)
				faulty += hamming16(p, a*bb)
				total += 16
				energy += res.EnergyFJ
			}
			rows = append(rows, fmt.Sprintf("mul8 @ %.1fV: BER=%.2f%% E/op=%.1ffJ",
				vdd, float64(faulty)/float64(total)*100, energy/float64(n)))
		}
		if i == 0 {
			b.Logf("multiplier VOS (cp=%.3fns):\n%s", tclk, strings.Join(rows, "\n"))
		}
	}
}

func hamming16(a, b uint64) int {
	d := (a ^ b) & 0xffff
	n := 0
	for ; d != 0; d &= d - 1 {
		n++
	}
	return n
}

// BenchmarkAblationTrainingSize shows model quality versus training-set
// size (scalability claim of Section IV).
func BenchmarkAblationTrainingSize(b *testing.B) {
	cfg := charz.Config{Arch: synth.ArchRCA, Width: 8, Patterns: 500, Seed: 1}
	res, err := charz.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var pick *charz.TriadResult
	for i := range res.Triads {
		if ber := res.Triads[i].BER(); ber > 0.03 && ber < 0.3 {
			pick = &res.Triads[i]
			break
		}
	}
	if pick == nil {
		b.Fatal("no mid-BER triad")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rows []string
		for _, n := range []int{250, 1000, 4000, 16000} {
			hw, err := charz.NewEngineAdder(res.Netlist, cfg, pick.Triad)
			if err != nil {
				b.Fatal(err)
			}
			gen, err := patterns.NewUniform(8, 3)
			if err != nil {
				b.Fatal(err)
			}
			samples, err := core.CollectSamples(hw, gen, n)
			if err != nil {
				b.Fatal(err)
			}
			table, err := core.TrainFromSamples(samples, 8, core.MetricMSE)
			if err != nil {
				b.Fatal(err)
			}
			model := &core.Model{Width: 8, Metric: core.MetricMSE, Table: table}
			approx, err := core.NewApproxAdder(model, 5)
			if err != nil {
				b.Fatal(err)
			}
			evalGen, err := patterns.NewUniform(8, 4)
			if err != nil {
				b.Fatal(err)
			}
			evalSamples, err := core.CollectSamples(hw, evalGen, 4000)
			if err != nil {
				b.Fatal(err)
			}
			ev, err := core.EvaluateSamples(evalSamples, approx)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, fmt.Sprintf("train=%5d: SNR=%.1fdB normHam=%.4f", n, ev.SNRdB, ev.NormalizedHamming))
		}
		if i == 0 {
			b.Logf("training-size ablation at %s:\n%s", pick.Triad.Label(), strings.Join(rows, "\n"))
		}
	}
}

// --- Micro-benchmarks of the hot paths ---

// BenchmarkSimStepDenseRCA8 measures one two-vector step of the scalar
// gate-level engine on an over-scaled 8-bit RCA: operands bound through a
// compiled Stimulus, results in the engine's reused buffers, so the loop
// allocates nothing.
func BenchmarkSimStepDenseRCA8(b *testing.B) {
	lib := cell.Default28nmLVT()
	proc := fdsoi.Default()
	nl, _ := synth.RCA(synth.AdderConfig{Width: 8})
	eng := sim.New(nl, lib, proc, fdsoi.OperatingPoint{Vdd: 0.6, Vbb: 2})
	stim := netlist.CompileStimulus(nl)
	slotA, slotB := stim.MustSlot(synth.PortA), stim.MustSlot(synth.PortB)
	if err := eng.ResetDense(stim.Values()); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stim.SetSlot(slotA, rng.Uint64()&0xff)
		stim.SetSlot(slotB, rng.Uint64()&0xff)
		if _, err := eng.StepDense(stim.Values(), 0.183); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimStepDenseBKA16 is the 16-bit Brent-Kung variant.
func BenchmarkSimStepDenseBKA16(b *testing.B) {
	lib := cell.Default28nmLVT()
	proc := fdsoi.Default()
	nl, _ := synth.BKA(synth.AdderConfig{Width: 16})
	eng := sim.New(nl, lib, proc, fdsoi.OperatingPoint{Vdd: 0.6, Vbb: 2})
	stim := netlist.CompileStimulus(nl)
	slotA, slotB := stim.MustSlot(synth.PortA), stim.MustSlot(synth.PortB)
	if err := eng.ResetDense(stim.Values()); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stim.SetSlot(slotA, rng.Uint64()&0xffff)
		stim.SetSlot(slotB, rng.Uint64()&0xffff)
		if _, err := eng.StepDense(stim.Values(), 0.2); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWideChunks prepares alternating (prev, cur) K-word wide images
// from a chained random pattern stream, the steady-state shape of the
// characterization sweep's chunk loop, laid out block-major (net*k+j)
// as the wide engine's walks expect.
func benchWideChunks(nl *netlist.Netlist, mask uint64, k int) [2][2][]uint64 {
	pa, _ := nl.InputPort(synth.PortA)
	pb, _ := nl.InputPort(synth.PortB)
	rng := rand.New(rand.NewPCG(1, 1))
	var pairs [2][2][]uint64
	prevA, prevB := uint64(0), uint64(0)
	pw := make([]uint64, nl.NumNets())
	cw := make([]uint64, nl.NumNets())
	for c := 0; c < 2; c++ {
		prevW := make([]uint64, nl.NumNets()*k)
		curW := make([]uint64, nl.NumNets()*k)
		for j := 0; j < k; j++ {
			for l := 0; l < sim.WordLanes; l++ {
				a, bb := rng.Uint64()&mask, rng.Uint64()&mask
				netlist.AssignPortLane(pw, pa, uint(l), prevA)
				netlist.AssignPortLane(pw, pb, uint(l), prevB)
				netlist.AssignPortLane(cw, pa, uint(l), a)
				netlist.AssignPortLane(cw, pb, uint(l), bb)
				prevA, prevB = a, bb
			}
			for net := 0; net < nl.NumNets(); net++ {
				prevW[net*k+j] = pw[net]
				curW[net*k+j] = cw[net]
			}
		}
		pairs[c] = [2][]uint64{prevW, curW}
	}
	return pairs
}

// benchSimStepWide measures the K-word wide engine's fresh walk
// (StepWide: one clock, the output nets tracked, no retime log) per
// K×64-pattern chunk at the same over-scaled operating point as the
// scalar SimStep benches; the ns/pattern metric is the figure to compare
// against one scalar StepDense.
// ReportAllocs pins the pooled-scratch contract: zero steady-state
// allocations per chunk.
func benchSimStepWide(b *testing.B, nl *netlist.Netlist, mask uint64, tclk float64) {
	const k = sim.MaxWideWords
	lib := cell.Default28nmLVT()
	proc := fdsoi.Default()
	eng, err := sim.NewWide(nl, lib, proc, fdsoi.OperatingPoint{Vdd: 0.6, Vbb: 2}, k)
	if err != nil {
		b.Fatal(err)
	}
	pairs := benchWideChunks(nl, mask, k)
	psum, _ := nl.OutputPort(synth.PortSum)
	pcout, _ := nl.OutputPort(synth.PortCout)
	outNets := append(append([]netlist.NetID(nil), psum.Bits...), pcout.Bits...)
	clocks := []float64{tclk}
	samples := make([]sim.WideSample, 1)
	if err := eng.StepWide(pairs[0][0], pairs[0][1], outNets, clocks, samples); err != nil {
		b.Fatal(err) // warm the pooled scratch before counting allocs
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&1]
		if err := eng.StepWide(p[0], p[1], outNets, clocks, samples); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k*sim.WordLanes), "ns/pattern")
}

func BenchmarkSimStepWideRCA8(b *testing.B) {
	nl, _ := synth.RCA(synth.AdderConfig{Width: 8})
	benchSimStepWide(b, nl, 0xff, 0.183)
}

func BenchmarkSimStepWideBKA16(b *testing.B) {
	nl, _ := synth.BKA(synth.AdderConfig{Width: 16})
	benchSimStepWide(b, nl, 0xffff, 0.2)
}

// benchCrossVddResample measures the cross-voltage reuse path in the
// grouped sweep's steady-state shape: one wide trace recorded at a
// higher supply serves a neighboring over-scaled point through one
// order-checked RetimeTrace that captures every clock period in its
// walk, no fresh simulation. ns/pattern counts every (pattern, clock)
// experiment answered from the retimed wave; any order-check fallback
// fails the benchmark (the dithered delay grid keeps the grid
// order-stable).
func benchCrossVddResample(b *testing.B, nl *netlist.Netlist, mask uint64, tclks []float64) {
	const k = sim.MaxWideWords
	lib := cell.Default28nmLVT()
	proc := fdsoi.Default()
	srcEng, err := sim.NewWide(nl, lib, proc, fdsoi.OperatingPoint{Vdd: 0.7, Vbb: 2}, k)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := sim.NewWide(nl, lib, proc, fdsoi.OperatingPoint{Vdd: 0.6, Vbb: 2}, k)
	if err != nil {
		b.Fatal(err)
	}
	pairs := benchWideChunks(nl, mask, k)
	psum, _ := nl.OutputPort(synth.PortSum)
	pcout, _ := nl.OutputPort(synth.PortCout)
	outNets := append(append([]netlist.NetID(nil), psum.Bits...), pcout.Bits...)
	samples := make([]sim.WideSample, len(tclks))
	trace, err := srcEng.StepWideTrace(pairs[0][0], pairs[0][1], outNets, tclks, samples)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := eng.RetimeTrace(trace, tclks, samples)
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			b.Fatal("order-check fallback on the benchmark grid")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tclks)*k*sim.WordLanes), "ns/pattern")
}

func BenchmarkCrossVddResampleRCA8(b *testing.B) {
	nl, _ := synth.RCA(synth.AdderConfig{Width: 8})
	benchCrossVddResample(b, nl, 0xff, []float64{0.13, 0.19, 0.28})
}

func BenchmarkCrossVddResampleBKA16(b *testing.B) {
	nl, _ := synth.BKA(synth.AdderConfig{Width: 16})
	benchCrossVddResample(b, nl, 0xffff, []float64{0.31, 0.42, 0.52})
}

// BenchmarkInputBindingDense isolates the per-vector input-binding cost:
// scatter two operand words through the compiled Stimulus, then gather
// every input net back out of its dense image, as the engines' input
// application reads it.
func BenchmarkInputBindingDense(b *testing.B) {
	nl, _ := synth.BKA(synth.AdderConfig{Width: 16})
	stim := netlist.CompileStimulus(nl)
	slotA, slotB := stim.MustSlot(synth.PortA), stim.MustSlot(synth.PortB)
	var inputNets []netlist.NetID
	for _, p := range nl.Inputs {
		inputNets = append(inputNets, p.Bits...)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	var sink uint8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stim.SetSlot(slotA, rng.Uint64()&0xffff)
		stim.SetSlot(slotB, rng.Uint64()&0xffff)
		vals := stim.Values()
		for _, id := range inputNets {
			sink += vals[id]
		}
	}
	_ = sink
}

// BenchmarkEvaluateScalar and BenchmarkEvaluateBatch measure the
// zero-delay reference cost per 64 vectors: one bit-sliced pass versus 64
// scalar passes. The scalar pass reuses one compiled stimulus image
// through EvaluateInto — the allocation-free form the reference paths in
// the parity and cross-check tests use — so the comparison is pure
// evaluation cost, not map and garbage traffic.
func BenchmarkEvaluateScalar(b *testing.B) {
	nl, _ := synth.BKA(synth.AdderConfig{Width: 16})
	rng := rand.New(rand.NewPCG(1, 1))
	stim := netlist.CompileStimulus(nl)
	slotA, slotB := stim.MustSlot(synth.PortA), stim.MustSlot(synth.PortB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < netlist.BatchLanes; k++ {
			stim.SetSlot(slotA, rng.Uint64())
			stim.SetSlot(slotB, rng.Uint64())
			if err := nl.EvaluateInto(stim.Values()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkEvaluateBatch(b *testing.B) {
	nl, _ := synth.BKA(synth.AdderConfig{Width: 16})
	rng := rand.New(rand.NewPCG(1, 1))
	lanes := make([]uint64, nl.NumNets())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < netlist.BatchLanes; k++ {
			for _, p := range nl.Inputs {
				netlist.AssignPortLane(lanes, p, uint(k), rng.Uint64())
			}
		}
		if err := nl.EvaluateBatch(lanes); err != nil {
			b.Fatal(err)
		}
	}
}

// approxAddSink keeps BenchmarkApproxAdd's sums live.
var approxAddSink uint64

// BenchmarkApproxAdd replays the model adder over a precomputed buffer
// of 1024 uniform 16-bit operand pairs per op. Its table keeps each
// chain whole with probability ½ and cuts it to half its length
// otherwise, so both of Add's exits run.
func BenchmarkApproxAdd(b *testing.B) {
	tb := core.NewProbTable(16)
	for l := 0; l <= 16; l++ {
		tb.P[l][l] += 0.5
		tb.P[l/2][l] += 0.5
	}
	approx, err := core.NewApproxAdder(&core.Model{Width: 16, Metric: core.MetricMSE, Table: tb}, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	var ops [1024][2]uint64
	for i := range ops {
		ops[i] = [2]uint64{rng.Uint64() & 0xffff, rng.Uint64() & 0xffff}
	}
	var sum uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, op := range ops {
			sum += approx.Add(op[0], op[1])
		}
	}
	b.StopTimer()
	approxAddSink = sum
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ops)), "ns/add")
}

func BenchmarkLimitedAdd(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		carry.LimitedAdd(rng.Uint64()&0xffff, rng.Uint64()&0xffff, 16, 5)
	}
}

func BenchmarkCthmax(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		carry.Cthmax(rng.Uint64()&0xffff, rng.Uint64()&0xffff, 16)
	}
}

func BenchmarkSTAAnalyze(b *testing.B) {
	lib := cell.Default28nmLVT()
	proc := fdsoi.Default()
	nl, _ := synth.BKA(synth.AdderConfig{Width: 16})
	op := fdsoi.OperatingPoint{Vdd: 0.7, Vbb: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sta.Analyze(nl, lib, proc, op)
	}
}

// BenchmarkAblationEngineFidelity cross-checks the two timing engines
// (transport-delay gate-level vs switch-level RC) across a reduced triad
// set: both must classify triads identically and report comparable BER.
func BenchmarkAblationEngineFidelity(b *testing.B) {
	clocks := triad.PaperClockRatios("RCA", 8).Clocks(0.27)
	triads := []triad.Triad{
		{Tclk: clocks[1], Vdd: 1.0, Vbb: 0},
		{Tclk: clocks[1], Vdd: 0.5, Vbb: 2},
		{Tclk: clocks[1], Vdd: 0.7, Vbb: 0},
		{Tclk: clocks[1], Vdd: 0.5, Vbb: 0},
		{Tclk: clocks[2], Vdd: 0.4, Vbb: 2},
	}
	for i := 0; i < b.N; i++ {
		run := func(bk charz.Backend) *charz.Result {
			cfg := charz.Config{
				Arch: synth.ArchRCA, Width: 8, Patterns: 800, Seed: 1,
				Triads: triads, Backend: bk,
			}
			res, err := charz.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return res
		}
		gate, rc := run(charz.BackendGate), run(charz.BackendRC)
		if i == 0 {
			var rows []string
			for j := range triads {
				rows = append(rows, fmt.Sprintf("%-14s gate BER=%6.2f%%  rc BER=%6.2f%%",
					triads[j].Label(), gate.Triads[j].BER()*100, rc.Triads[j].BER()*100))
			}
			b.Logf("engine fidelity:\n%s", strings.Join(rows, "\n"))
		}
	}
}

// BenchmarkAblationStaticVsVOS compares design-time approximate adders
// (LOA, TRA — the paper's §II baselines) against voltage over-scaling of
// an exact adder at matched error rates: the paper argues VOS offers the
// same trade-off without freezing it into the netlist.
func BenchmarkAblationStaticVsVOS(b *testing.B) {
	lib := cell.Default28nmLVT()
	proc := fdsoi.Default()
	cfg := charz.Config{Arch: synth.ArchRCA, Width: 8, Patterns: benchPatterns, Seed: 1}
	vosRes, err := charz.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rows []string
		// Static baselines at their nominal triad.
		for _, k := range []int{2, 4} {
			for _, kind := range []string{"loa", "tra"} {
				var nl *netlist.Netlist
				var err error
				if kind == "loa" {
					nl, err = synth.LOA(synth.ApproxConfig{Width: 8, ApproxBits: k})
				} else {
					nl, err = synth.TRA(synth.ApproxConfig{Width: 8, ApproxBits: k})
				}
				if err != nil {
					b.Fatal(err)
				}
				rep, err := synth.Synthesize(nl, lib, proc, 500, 1)
				if err != nil {
					b.Fatal(err)
				}
				hw, err := charz.NewEngineAdder(nl, cfg, triad.Triad{Tclk: rep.CriticalPath, Vdd: proc.VddNom})
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewPCG(5, 5))
				var faulty, total int
				const n = 1500
				for v := 0; v < n; v++ {
					x, y := rng.Uint64()&0xff, rng.Uint64()&0xff
					faulty += hamming16(hw.Add(x, y), x+y) // 9 live bits; mask ok
					total += 9
				}
				rows = append(rows, fmt.Sprintf("static %s k=%d: BER=%5.2f%% E/op=%6.1ffJ (fixed at design time)",
					kind, k, float64(faulty)/float64(total)*100, hw.MeanEnergyFJ()))
			}
		}
		// VOS points at comparable BERs from the characterized sweep.
		for _, target := range []float64{0.02, 0.08} {
			best, diff := -1, 10.0
			for j, tr := range vosRes.Triads {
				d := tr.BER() - target
				if d < 0 {
					d = -d
				}
				if d < diff {
					best, diff = j, d
				}
			}
			tr := vosRes.Triads[best]
			rows = append(rows, fmt.Sprintf("VOS %-14s: BER=%5.2f%% E/op=%6.1ffJ (runtime-switchable)",
				tr.Triad.Label(), tr.BER()*100, tr.EnergyPerOpFJ))
		}
		if i == 0 {
			b.Logf("static approximation vs VOS:\n%s", strings.Join(rows, "\n"))
		}
	}
}

// BenchmarkRCSimStep measures the switch-level engine's per-operation cost
// relative to BenchmarkSimStepDenseRCA8, on the dense zero-allocation
// path the characterization sweeps use.
func BenchmarkRCSimStep(b *testing.B) {
	lib := cell.Default28nmLVT()
	proc := fdsoi.Default()
	nl, _ := synth.RCA(synth.AdderConfig{Width: 8})
	eng := rcsim.New(nl, lib, proc, fdsoi.OperatingPoint{Vdd: 0.6, Vbb: 2})
	stim := netlist.CompileStimulus(nl)
	slotA, slotB := stim.MustSlot(synth.PortA), stim.MustSlot(synth.PortB)
	if err := eng.ResetDense(stim.Values()); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stim.SetSlot(slotA, rng.Uint64()&0xff)
		stim.SetSlot(slotB, rng.Uint64()&0xff)
		if _, err := eng.StepDense(stim.Values(), 0.183); err != nil {
			b.Fatal(err)
		}
	}
}

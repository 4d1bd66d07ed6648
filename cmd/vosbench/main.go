// Command vosbench runs the repository's simulation benchmarks and writes
// the results as machine-readable JSON (BENCH_sim.json), so the hot-path
// performance trajectory is tracked commit over commit instead of living
// in scrollback. It shells out to `go test -bench` and parses the standard
// benchmark output format.
//
// Usage:
//
//	vosbench [-bench REGEX] [-benchtime 1000x] [-out BENCH_sim.json]
//	         [-pkg .] [-keep-going]
//	         [-diff BASELINE.json]
//	         [-diff-filter "^(SimStep|CrossVddResample|Fig8|MonteCarloPoint|ApproxAdd|ClusterWarmLookup|EngineWarmSweep)"]
//	         [-diff-threshold 0.20] [-profile-regressed DIR]
//
// The default benchmark set covers the dense-state hot path: the per-step
// (scalar and K-word wide) and cross-voltage retime/resample
// micro-benchmarks, the input-binding and batch-evaluation costs, the
// model adder's replay, the Fig. 8-class sweeps (engine-backed and
// grouped-charz), the Monte Carlo point rate on the calibrated model
// backend, the write-ahead journal's
// append path (synced and unsynced), and the warm serving paths — one
// cached point fetched through vos.Remote from a warm in-process cluster
// and one warm engine sweep through vos.Local, each with a journaled
// twin so the durability tax is tracked commit over commit.
//
// With -diff, the fresh run is compared against a committed baseline file
// and the command exits non-zero when any benchmark matched by
// -diff-filter regressed by more than -diff-threshold in ns/op or in
// allocs/op — the CI guard against hot-path regressions
// (`make bench-diff`). With
// -profile-regressed, a failing gate first re-runs each regressed
// benchmark under -cpuprofile and writes one profile per benchmark into
// DIR, which CI uploads as an artifact so the regression comes with its
// own evidence.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Result is one parsed benchmark line.
type Result struct {
	Name  string  `json:"name"`
	Iters int64   `json:"iters"`
	NsOp  float64 `json:"ns_per_op"`
	// BOp/AllocsOp are present with -benchmem.
	BOp      *float64 `json:"bytes_per_op,omitempty"`
	AllocsOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds every other "value unit" pair, including custom
	// b.ReportMetric units (fJ/op@nominal, sim-points, …).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// File is the BENCH_sim.json schema.
type File struct {
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	Command    string   `json:"command"`
	RunAt      string   `json:"run_at"`
	Benchmarks []Result `json:"benchmarks"`
}

// The default run has four groups: per-step micro-benchmarks at a fixed
// iteration count; the Fig. 8-class sweeps at exactly one iteration, so
// the recorded number is the cold (cache-empty) sweep cost rather than a
// mostly-cache-warm average; the Monte Carlo point at ten iterations,
// since its reps are never cached and every iteration recomputes them
// all; and the cluster serving-path benchmark at a small iteration count
// (each op is a full HTTP sweep lifecycle, so 100 iterations average the
// scheduler noise without multiplying the in-process cluster setup).
const (
	defaultMicroBench = "SimStep|CrossVddResample|InputBinding|EvaluateScalar|EvaluateBatch|RCSimStep|JournalAppend|ApproxAdd"
	defaultSweepBench = "Fig8"
	defaultMCBench    = "MonteCarloPoint"
	mcBenchtime       = "10x"
	defaultServeBench = "ClusterWarmLookup|EngineWarmSweep"
	serveBenchtime    = "100x"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vosbench: ")
	var (
		bench     = flag.String("bench", "", "override: run only this selection regex at -benchtime")
		benchtime = flag.String("benchtime", "1000x", "per-benchmark budget for the micro group (go test -benchtime)")
		sweeptime = flag.String("sweeptime", "1x", "per-benchmark budget for the sweep group")
		out       = flag.String("out", "BENCH_sim.json", "output JSON path")
		pkg       = flag.String("pkg", ".", "package to bench")
		keepGoing = flag.Bool("keep-going", false, "write whatever parsed even if go test failed")
		count     = flag.Int("count", 1, "samples per benchmark (go test -count); the best (min ns/op) sample is kept")
		// The micro benches finish in microseconds, so scheduler-noise
		// bursts lasting seconds can inflate every sample of a small
		// -count; the sweeps run tens of milliseconds per sample and
		// average the noise out. A separate sweep count lets the cheap
		// micro group take many samples without multiplying the
		// expensive sweep group.
		sweepCount = flag.Int("sweep-count", 0, "samples per sweep-group benchmark (0 = same as -count)")

		diffPath = flag.String("diff", "", "baseline JSON to compare against; exit non-zero on regression")
		// JournalAppend is recorded but deliberately absent from the
		// gate: its ns/op is a property of the disk (fsync latency,
		// page-cache state), swinging well past the threshold between
		// runs of identical code. The journal's code cost is gated
		// through the journaled EngineWarmSweep/ClusterWarmLookup
		// twins instead, where it is one term of a realistic op.
		diffRe    = flag.String("diff-filter", "^(SimStep|CrossVddResample|Fig8|MonteCarloPoint|ApproxAdd|ClusterWarmLookup|EngineWarmSweep)", "benchmarks the -diff gate applies to")
		threshold = flag.Float64("diff-threshold", 0.20, "fractional ns/op or allocs/op regression that fails the -diff gate")
		profDir   = flag.String("profile-regressed", "", "directory to write one cpuprofile per regressed benchmark when the -diff gate fails (uploaded as a CI artifact)")
	)
	flag.Parse()

	if *sweepCount == 0 {
		*sweepCount = *count
	}
	type group struct {
		re, bt string
		count  int
	}
	groups := []group{
		{defaultMicroBench, *benchtime, *count},
		{defaultSweepBench, *sweeptime, *sweepCount},
		{defaultMCBench, mcBenchtime, *sweepCount},
		{defaultServeBench, serveBenchtime, *sweepCount},
	}
	if *bench != "" {
		groups = []group{{*bench, *benchtime, *count}}
	}

	var results []Result
	var cmds []string
	var runErr error
	for _, g := range groups {
		args := []string{"test", "-run", "^$", "-bench", g.re, "-benchmem",
			"-benchtime", g.bt, "-count", strconv.Itoa(g.count), *pkg}
		cmds = append(cmds, "go "+strings.Join(args, " "))
		cmd := exec.Command("go", args...)
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			if !*keepGoing {
				log.Fatalf("go %s: %v", strings.Join(args, " "), err)
			}
			runErr = err
		}
		results = append(results, Parse(buf.String())...)
	}
	results = BestSamples(results)
	if len(results) == 0 {
		log.Fatal("no benchmark lines parsed")
	}
	f := File{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Command:    strings.Join(cmds, " && "),
		RunAt:      time.Now().UTC().Format(time.RFC3339),
		Benchmarks: results,
	}
	data, err := json.MarshalIndent(f, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d benchmarks to %s", len(results), *out)
	for _, r := range results {
		fmt.Printf("  %-28s %12.1f ns/op\n", r.Name, r.NsOp)
	}
	if *diffPath != "" {
		regressed, err := Diff(os.Stdout, *diffPath, results, *diffRe, *threshold)
		if err != nil {
			if *profDir != "" && len(regressed) > 0 {
				profileRegressed(*profDir, regressed, *pkg)
			}
			log.Fatal(err)
		}
	}
	if runErr != nil {
		os.Exit(1)
	}
}

// BestSamples collapses repeated samples of one benchmark (-count > 1)
// to the minimum-ns/op one, preserving first-appearance order. Min — not
// mean — because scheduler noise and cold caches only ever inflate a
// run: the fastest sample is the closest observation of the code's true
// cost, which is what a cross-run regression gate should compare. Its
// allocs/op is the smallest of any sample, for the same reason: the
// first sample of a process can carry one-time warm-up allocations.
func BestSamples(results []Result) []Result {
	best := make(map[string]int, len(results))
	out := results[:0]
	for _, r := range results {
		i, ok := best[r.Name]
		if !ok {
			best[r.Name] = len(out)
			out = append(out, r)
			continue
		}
		allocs := out[i].AllocsOp
		if r.AllocsOp != nil && (allocs == nil || *r.AllocsOp < *allocs) {
			allocs = r.AllocsOp
		}
		if r.NsOp < out[i].NsOp {
			out[i] = r
		}
		out[i].AllocsOp = allocs
	}
	return out
}

// Diff compares fresh results against the baseline file and returns an
// error when any benchmark matched by filter regressed beyond threshold
// — a fractional increase of ns/op, or of allocs/op where both runs
// report it — along with the names of the regressed benchmarks that are
// present in the fresh run (the profilable ones). Allocation counts
// barely move between runs of the same code, so unlike ns/op they hold
// a win on a noisy host; a zero-allocation baseline fails on any
// allocation.
// Benchmarks absent from the baseline are reported as new and never
// fail the gate — a fresh optimization's bench lands before its first
// committed baseline — while filtered baseline entries missing from the
// fresh run do fail it: a silently dropped benchmark must not read as a
// pass.
func Diff(w io.Writer, baselinePath string, fresh []Result, filter string, threshold float64) ([]string, error) {
	re, err := regexp.Compile(filter)
	if err != nil {
		return nil, fmt.Errorf("bad -diff-filter: %w", err)
	}
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	var base File
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	old := make(map[string]Result, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		old[r.Name] = r
	}
	fmt.Fprintf(w, "diff vs %s (gate: %s, +%.0f%%):\n", baselinePath, filter, threshold*100)
	var regressed, failures []string
	seen := make(map[string]bool, len(fresh))
	for _, r := range fresh {
		if !re.MatchString(r.Name) {
			continue
		}
		seen[r.Name] = true
		b, ok := old[r.Name]
		if !ok {
			fmt.Fprintf(w, "  %-28s %12.1f ns/op  (new, not gated)\n", r.Name, r.NsOp)
			continue
		}
		delta := r.NsOp/b.NsOp - 1
		mark, bad := "", false
		if delta > threshold {
			mark, bad = "  REGRESSED", true
			failures = append(failures, r.Name)
		}
		if r.AllocsOp != nil && b.AllocsOp != nil {
			mark = fmt.Sprintf("  %g -> %g allocs/op%s", *b.AllocsOp, *r.AllocsOp, mark)
			if *r.AllocsOp > *b.AllocsOp*(1+threshold) {
				mark, bad = mark+"  ALLOCS REGRESSED", true
				failures = append(failures, r.Name+" (allocs/op)")
			}
		}
		if bad {
			regressed = append(regressed, r.Name)
		}
		fmt.Fprintf(w, "  %-28s %12.1f -> %12.1f ns/op  %+6.1f%%%s\n",
			r.Name, b.NsOp, r.NsOp, delta*100, mark)
	}
	for _, r := range base.Benchmarks {
		if re.MatchString(r.Name) && !seen[r.Name] {
			failures = append(failures, r.Name+" (missing from fresh run)")
			fmt.Fprintf(w, "  %-28s MISSING from fresh run\n", r.Name)
		}
	}
	if len(failures) > 0 {
		return regressed, fmt.Errorf("bench-diff: %d benchmark(s) regressed beyond %.0f%%: %s",
			len(failures), threshold*100, strings.Join(failures, ", "))
	}
	fmt.Fprintln(w, "  no gated regressions")
	return nil, nil
}

// profileRegressed re-runs each regressed benchmark briefly with
// -cpuprofile so a failed CI bench gate uploads the evidence alongside
// the numbers. Best effort: a profiling failure is logged and never
// masks the gate's own exit status.
func profileRegressed(dir string, names []string, pkg string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Printf("profile-regressed: %v", err)
		return
	}
	for _, name := range names {
		// A sub-benchmark regex is matched per slash-separated element.
		parts := strings.Split("Benchmark"+name, "/")
		for i, p := range parts {
			parts[i] = "^" + regexp.QuoteMeta(p) + "$"
		}
		out := filepath.Join(dir, strings.ReplaceAll(name, "/", "_")+".pprof")
		args := []string{"test", "-run", "^$", "-bench", strings.Join(parts, "/"),
			"-benchtime", "20x", "-cpuprofile", out,
			"-o", filepath.Join(dir, "bench.test"), pkg}
		log.Printf("profiling regressed benchmark %s -> %s", name, out)
		cmd := exec.Command("go", args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			log.Printf("profile-regressed %s: go test: %v", name, err)
		}
	}
}

// Parse extracts benchmark results from `go test -bench` output. Lines look
// like:
//
//	BenchmarkSimStepRCA8-8   2000   2117 ns/op   162 B/op   3 allocs/op
//
// with optional custom metric pairs mixed in.
func Parse(out string) []Result {
	var results []Result
	for _, line := range strings.Split(out, "\n") {
		all := strings.Fields(line)
		if len(all) < 4 || !strings.HasPrefix(all[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(all[0], "Benchmark")
		// Strip the -GOMAXPROCS suffix.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		fields := all[1:]
		iters, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			continue
		}
		r := Result{Name: name, Iters: iters, NsOp: -1}
		for i := 1; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsOp = val
			case "B/op":
				v := val
				r.BOp = &v
			case "allocs/op":
				v := val
				r.AllocsOp = &v
			default:
				if r.Metrics == nil {
					r.Metrics = make(map[string]float64)
				}
				r.Metrics[unit] = val
			}
		}
		if r.NsOp < 0 {
			continue
		}
		results = append(results, r)
	}
	return results
}

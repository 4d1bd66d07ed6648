// Command perfbench is the repository's end-to-end benchmark. It drives
// the program in-process, only through the vos SDK, cluster.StartLocal
// and the layers' public functions, on three closed-loop workloads:
//
//	fig8_cold   cold Fig. 8 sweeps on fresh vos.Local engines
//	serve_warm  warm lookups and sweeps against a journaled 3-node fleet
//	mc_1e6      1e6-sample /v1/mc jobs against a journaled vosd node
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fig8_cold --seed 1 --seconds 20 --trace 0
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced
// run (--trace 1) runs an untraced and a traced window of half the
// length each, prints the per-layer metrics, the tracing overhead, and
// writes its spans and counters under .bench_build/traces/. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; diagnostics go to standard error.
// NOTES.md explains the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// opTimeout bounds one op; an op that exceeds it counts as failed.
const opTimeout = 90 * time.Second

// rssInterval is the resident-set sampling period of the timed window.
const rssInterval = 50 * time.Millisecond

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// root is the directory the run reads its committed data from and
	// writes its scratch and trace files under.
	root string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var writeGolden bool
	fs.StringVar(&o.workload, "workload", "", "workload: fig8_cold, serve_warm or mc_1e6")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints per-layer metrics")
	fs.BoolVar(&writeGolden, "write-golden", false, "write the fig8_cold digests of the default seed to "+goldenPath+" and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	o.root = wd
	if writeGolden {
		if err := writeGoldenFile(filepath.Join(o.root, goldenPath)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(o.workload)
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (fig8_cold|serve_warm|mc_1e6), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	out, err := execute(w, o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	return 0
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// execute runs one invocation: inputs, set-ups, window(s), checks.
func execute(w *workload, o options, stderr io.Writer) (*result, error) {
	build := filepath.Join(o.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	in, err := w.inputs(o.seed)
	if err != nil {
		return nil, err
	}
	var golden map[string]string
	if w.name == "fig8_cold" && o.seed == defaultSeed {
		if golden, err = loadGolden(filepath.Join(o.root, goldenPath)); err != nil {
			return nil, err
		}
	}
	book := newDigestBook(golden)
	diag0 := readDiag()

	if !o.trace {
		m, err := measure(w, in, o.seed, o.seconds, w.rounds, scratch, nil, book, false)
		if err != nil {
			return nil, err
		}
		report(stderr, w.name, "untraced", m, readDiag().since(diag0))
		return m.result(endToEnd, m.e2e()), nil
	}

	// Traced variant: an untraced window, then a traced one of the same
	// length, then direct calls into the layers with no seam on the
	// path. Their end-to-end difference is the tracing overhead. Each
	// pass runs half the window in about half the rounds.
	half, halfRounds := o.seconds/2, (w.rounds+1)/2
	plain, err := measure(w, in, o.seed, half, halfRounds, scratch, nil, book, true)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := measure(w, in, o.seed, half, halfRounds, scratch, tr, book, false)
	if err != nil {
		return nil, err
	}
	layers := traced.layerValues(tr)
	for name, v := range plain.runtimeStats {
		layers[name] = v
	}
	if err := probe(w, in, o.seed, plain, layers); err != nil {
		return nil, err
	}
	pe, te := plain.e2e(), traced.e2e()
	for _, m := range endToEnd {
		layers["trace.overhead."+m.Name] = te[m.Name] - pe[m.Name]
	}
	var na []string
	for _, m := range perLayer {
		if !m.applies(w.name) {
			na = append(na, m.Name)
			layers[m.Name] = 0
		} else if _, ok := layers[m.Name]; !ok {
			layers[m.Name] = 0
		}
	}
	dir := filepath.Join(build, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
	if err := tr.writeFile(path, map[string]any{
		"workload": w.name, "seed": o.seed, "perLayer": layers,
		"selfTimeMs": selfTimes(tr.snapshot()), "notOnPath": na,
	}); err != nil {
		return nil, err
	}
	report(stderr, w.name, "untraced half", plain, readDiag().since(diag0))
	report(stderr, w.name, "traced half", traced, diag{})
	printLayers(stderr, w.name, layers, na, path)
	out := plain.result(perLayer, layers)
	out.Attempted += traced.attempted
	out.Failed += traced.failed
	out.Correct = out.Correct && traced.correct()
	return out, nil
}

// measurement is the outcome of one pass of rounds.
type measurement struct {
	setups      []float64 // seconds
	short, long []float64 // ms
	// roundEnds holds len(short) at the end of each round, roundRate
	// each round's work per second.
	roundEnds     []int
	roundRate     []float64
	work          float64
	window        time.Duration
	rss           []float64 // MiB
	attempted     int
	failed        int
	errs          []string
	windowErrs    int
	journalGrowth float64 // bytes, traced only
	runtimeStats  map[string]float64
	// nextSeq is each client's next op number: rounds continue one op
	// sequence per client.
	nextSeq []int
}

func (m *measurement) correct() bool { return m.failed == 0 && m.windowErrs == 0 }

// shortTail returns short_tail_ms, the median over the rounds of each
// round's tail (see tail), with every round's percentile and short-op
// count. Pooling the run's short ops instead puts the tail so far out
// (p99.95 on serve_warm) that it counts the host's stalls: its spread
// over five seeds reached 0.32 to 0.44 of the median on every workload.
// A round's tail holds while fewer than ten of its short ops are hit by
// a stall, which is why fig8_cold and serve_warm run 21 shorter rounds
// (NOTES.md).
func (m *measurement) shortTail() (v float64, pcts []float64, counts []int) {
	var vals []float64
	lo := 0
	for _, hi := range m.roundEnds {
		t, p := tail(m.short[lo:hi])
		vals, pcts, counts = append(vals, t), append(pcts, p), append(counts, hi-lo)
		lo = hi
	}
	return median(vals), pcts, counts
}

func (m *measurement) e2e() map[string]float64 {
	shortTail, _, _ := m.shortTail()
	return map[string]float64{
		"setup_s":          median(m.setups),
		"throughput_per_s": median(m.roundRate),
		"short_p50_ms":     median(m.short),
		"short_tail_ms":    shortTail,
		"long_p50_ms":      median(m.long),
		"rss_mb":           median(m.rss),
	}
}

func (m *measurement) result(defs []metricDef, vals map[string]float64) *result {
	out := &result{Correct: m.correct(), Attempted: m.attempted, Failed: m.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.Name] = value{Value: finite(vals[d.Name]), Unit: d.Unit}
	}
	return out
}

// measure runs the rounds of one pass. Each round boots a fresh
// system, times its set-up and then runs one timed window of
// seconds/rounds on it; latency medians pool every round's samples.
// Spreading the window over several boots also averages out what one
// boot fixes at random, such as the cluster ring's layout over the
// members' ephemeral ports. With allocPass the last system also
// measures allocation per op kind and the GC's CPU share.
func measure(w *workload, in any, seed uint64, seconds float64, nRounds int, scratch string, tr *tracer,
	book *digestBook, allocPass bool) (*measurement, error) {
	ctx := context.Background()
	m := &measurement{}
	for r := 0; r < nRounds; r++ {
		last := r == nRounds-1
		if err := m.round(ctx, w, in, seed, seconds/float64(nRounds), scratch, tr, book, allocPass && last); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// round is one boot, set-up and timed window of measure.
func (m *measurement) round(ctx context.Context, w *workload, in any, seed uint64, seconds float64,
	scratch string, tr *tracer, book *digestBook, allocPass bool) error {
	dir, err := os.MkdirTemp(scratch, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: seed, dir: dir, tr: tr, book: book, workers: nproc(), clients: w.clients}
	sys := w.newSystem(in, e)
	defer sys.close()
	runtime.GC()
	start := time.Now()
	bctx, cancel := context.WithTimeout(ctx, opTimeout)
	err = sys.boot(bctx)
	cancel()
	for i := 0; err == nil && i < w.warmLong+w.warmShort; i++ {
		_, err = runOp(ctx, tr, sys, w.clients, i, i < w.warmLong)
	}
	if err != nil {
		return fmt.Errorf("%s set-up: %w", w.name, err)
	}
	m.setups = append(m.setups, time.Since(start).Seconds())

	debug.FreeOSMemory()
	sys.startWindow()
	tr.setActive(true)
	m.timedWindow(ctx, w, sys, seconds, tr, dir)
	err = sys.endWindow()
	tr.setActive(false)
	if err != nil {
		m.failed++
		m.windowErrs++
		m.errs = append(m.errs, err.Error())
	}
	if allocPass {
		stats, err := allocPerOp(ctx, sys)
		if err != nil {
			m.failed++
			m.errs = append(m.errs, err.Error())
		}
		m.runtimeStats = stats
	}
	return nil
}

// runOp runs one op under the op timeout, as a root span when traced.
func runOp(ctx context.Context, tr *tracer, sys system, c, n int, long bool) (float64, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	ctx, finish := tr.startOp(ctx, "op."+kindName(long), fmt.Sprintf("c%d-%s%d", c, kindName(long), n))
	defer finish()
	return sys.op(ctx, c, n, long)
}

// opAt maps a client's seq-th op onto its kind and its number within
// that kind: op 0 is long, then longEvery-1 short ops, and so on.
func opAt(seq, longEvery int) (long bool, n int) {
	if seq%longEvery == 0 {
		return true, seq / longEvery
	}
	return false, seq - seq/longEvery - 1
}

// timedWindow runs one round's closed loop: every client runs ops back
// to back in whole cycles while the next cycle fits before the deadline,
// and the window closes when the last client stops, so every op counted
// is whole and every round has the same mix of long and short ops.
func (m *measurement) timedWindow(ctx context.Context, w *workload, sys system, seconds float64,
	tr *tracer, dir string) {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		lastSize := int64(-1)
		for {
			m.rss = append(m.rss, rssMiB())
			if tr != nil {
				// Journal growth: compactions shrink the dir, so only
				// the increases between samples count.
				size := dirSize(dir)
				if lastSize >= 0 && size > lastSize {
					m.journalGrowth += float64(size - lastSize)
				}
				lastSize = size
			}
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	if m.nextSeq == nil {
		m.nextSeq = make([]int, w.clients)
	}
	work0 := m.work
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			first := m.nextSeq[c]
			var cycleStart time.Time
			var cycle time.Duration
			for seq := first; ; seq++ {
				if seq%w.longEvery == 0 {
					// Rounds end on cycle boundaries, so every round runs
					// whole cycles of one long op and its short ops: the
					// first cycle always, then another only while one
					// more cycle as long as the last still fits before
					// the deadline.
					now := time.Now()
					if seq != first {
						cycle = now.Sub(cycleStart)
						if now.Add(cycle).After(deadline) {
							m.nextSeq[c] = seq
							return
						}
					}
					cycleStart = now
				}
				long, n := opAt(seq, w.longEvery)
				t0 := time.Now()
				work, err := runOp(ctx, tr, sys, c, n, long)
				ms := float64(time.Since(t0)) / 1e6
				mu.Lock()
				m.attempted++
				switch {
				case err != nil:
					m.failed++
					if len(m.errs) < 5 {
						m.errs = append(m.errs, err.Error())
					}
				case long:
					m.long = append(m.long, ms)
					m.work += work
				default:
					m.short = append(m.short, ms)
					m.work += work
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	d := time.Since(start)
	m.window += d
	m.roundEnds = append(m.roundEnds, len(m.short))
	m.roundRate = append(m.roundRate, (m.work-work0)/d.Seconds())
	close(stop)
	sampler.Wait()
}

// allocPerOp runs a few ops of each kind one at a time and reports the
// heap bytes allocated per op kind and the GC's share of CPU over them.
func allocPerOp(ctx context.Context, sys system) (map[string]float64, error) {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	read := func() (alloc, gc, total float64) {
		metrics.Read(samples)
		return float64(samples[0].Value.Uint64()), samples[1].Value.Float64(), samples[2].Value.Float64()
	}
	out := map[string]float64{}
	var gcSum, totalSum float64
	for _, long := range []bool{false, true} {
		n := 8
		if long {
			n = 2
		}
		runtime.GC()
		a0, g0, t0 := read()
		for i := 0; i < n; i++ {
			if _, err := runOp(ctx, nil, sys, 0, i, long); err != nil {
				return out, fmt.Errorf("alloc pass: %w", err)
			}
		}
		a1, g1, t1 := read()
		out["runtime.alloc_kb_per_op."+kindName(long)] = (a1 - a0) / float64(n) / 1024
		gcSum += g1 - g0
		totalSum += t1 - t0
	}
	if totalSum > 0 {
		out["runtime.gc_cpu_share"] = gcSum / totalSum
	}
	return out, nil
}

// layerValues derives the per-layer metrics of a traced window from its
// spans, counters and the system's own tallies.
func (m *measurement) layerValues(tr *tracer) map[string]float64 {
	out := map[string]float64{}
	c := tr.counter
	for _, k := range []string{"long", "short"} {
		if n := c("ops." + k); n > 0 {
			out["engine.points_executed."+k] = c("executed."+k) / n
			out["engine.grouped_points."+k] = c("grouped."+k) / n
			out["engine.mc_reps_executed."+k] = c("reps."+k) / n
		}
	}
	if n := c("ops.long"); n > 0 {
		out["vos.local_results_ms"] = c("results_ms.long") / n
	}
	if hits, misses := c("cache_hits"), c("cache_misses"); hits+misses > 0 {
		out["engine.cache_hit_ratio"] = hits / (hits + misses)
	}
	// Per boot: every round boots its own fleet.
	if b := c("boots"); b > 0 {
		out["cluster.breaker_open"] = c("breaker_open") / b
		out["cluster.not_ready_at_start"] = c("not_ready_at_start") / b
		out["cluster.not_ready_probes"] = c("not_ready_probes") / b
	}
	spans := tr.snapshot()
	ops := float64(len(m.short) + len(m.long))
	byName := map[string][]float64{}
	handlerByReq := map[string]float64{}
	var clientCalls float64
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s.ms())
		if strings.HasPrefix(s.Name, "httpapi.") && s.ReqID != "" {
			handlerByReq[s.ReqID] = s.ms()
		}
		if strings.HasPrefix(s.Name, "vos.") && s.ReqID != "" && s.Parent != 0 {
			clientCalls++
		}
	}
	if ops > 0 {
		out["vos.http_calls_per_op"] = clientCalls / ops
	}
	for _, c := range httpCalls {
		out["vos.http_client_ms."+c] = mean(byName["vos."+c])
	}
	for _, r := range httpRoutes {
		out["httpapi.handler_ms."+r] = mean(byName["httpapi."+r])
	}
	var waits []float64
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "vos.") && s.ReqID != "" {
			if h, ok := handlerByReq[s.ReqID]; ok {
				waits = append(waits, s.ms()-h)
			}
		}
	}
	out["httpapi.wait_ms"] = mean(waits)
	out["vos.retries"] = c("vos.retries")
	if n := float64(len(m.long)); n > 0 {
		out["cluster.shard_rpcs_per_long_op"] = float64(len(byName["cluster.shard_rpc"])) / n
	}
	out["cluster.shard_rpc_ms"] = mean(byName["cluster.shard_rpc"])
	out["cluster.peer_fills"] = float64(len(byName["cluster.peer_fill"]))
	if ops > 0 {
		out["journal.appends_per_op"] = c("journal.appends") / ops
		out["journal.bytes_per_op"] = m.journalGrowth / ops
	}
	return out
}

// report prints one pass's end-to-end figures and diagnostics to
// standard error.
func report(stderr io.Writer, workload, label string, m *measurement, d diag) {
	e := m.e2e()
	names := make([]string, 0, len(e))
	for k := range e {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(stderr, "perfbench %s (%s): window %.2fs, %d ops attempted, %d failed, %d short, %d long\n",
		workload, label, m.window.Seconds(), m.attempted, m.failed, len(m.short), len(m.long))
	for _, k := range names {
		fmt.Fprintf(stderr, "  %-18s %.6g\n", k, e[k])
	}
	_, pcts, counts := m.shortTail()
	fmt.Fprintf(stderr, "  per round: set-up (s) %v\n", roundAll(m.setups))
	fmt.Fprintf(stderr, "    short_tail at percentile %v\n    of short ops %v\n", roundAll(pcts), counts)
	fmt.Fprintf(stderr, "    throughput (1/s) %v\n", roundAll(m.roundRate))
	if d != (diag{}) {
		fmt.Fprintf(stderr, "  diagnostics: host steal %.2fs, process CPU %.2fs, GC cycles %.0f\n", d.stealS, d.cpuS, d.gcCycles)
	}
	for _, e := range m.errs {
		fmt.Fprintf(stderr, "  failure: %s\n", e)
	}
}

func printLayers(stderr io.Writer, workload string, layers map[string]float64, na []string, path string) {
	fmt.Fprintf(stderr, "perfbench %s per-layer metrics (spans and counters in %s):\n", workload, path)
	skip := map[string]bool{}
	for _, n := range na {
		skip[n] = true
	}
	for _, m := range perLayer {
		if skip[m.Name] {
			continue
		}
		fmt.Fprintf(stderr, "  %-44s %14.6g %s\n", m.Name, layers[m.Name], m.Unit)
	}
	fmt.Fprintf(stderr, "  not on this workload's path (reported as 0): %s\n", strings.Join(na, ", "))
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int64(x*1e4)) / 1e4
	}
	return out
}

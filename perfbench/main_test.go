package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailRule(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- { // unsorted on purpose
		xs = append(xs, float64(i))
	}
	v, p := tail(xs)
	if v != 90 || p != 90 {
		t.Fatalf("tail of 1..100 = %v at p%v, want 90 at p90 (ten samples beyond)", v, p)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailSamples {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailSamples)
	}
	// One sample more than the rule needs: the tail is the minimum.
	v, p = tail(xs[89:])
	if v != 1 || p != 100.0/11 {
		t.Fatalf("tail of 11 samples = %v at p%v, want 1 at p%v", v, p, 100.0/11)
	}
	// Too few samples for any percentile to qualify: the maximum.
	v, p = tail([]float64{3, 1, 2})
	if v != 3 || p != 100 {
		t.Fatalf("tail of 3 samples = %v at p%v, want the maximum at p100", v, p)
	}
	// short_tail_ms is the median of the rounds' tails: rounds of 1..100,
	// 101..200 and 201..300 have tails 90, 190 and 290.
	var m measurement
	for r := 0; r < 3; r++ {
		for i := 1; i <= 100; i++ {
			m.short = append(m.short, float64(100*r+i))
		}
		m.roundEnds = append(m.roundEnds, len(m.short))
	}
	if v, pcts, counts := m.shortTail(); v != 190 || pcts[0] != 90 || counts[2] != 100 {
		t.Fatalf("shortTail = %v, percentiles %v, counts %v; want 190, p90 per round, 100 ops per round", v, pcts, counts)
	}
}

// TestSelfTimes nests a client span under an op span and a handler span
// under the client span by request id: each level's self time is its
// duration minus the union of its children.
func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: "op.short", ReqID: "c0-short0", Node: -1, Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "vos.submit_sweep", ReqID: "c0-short0.1", Node: -1, Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Name: "vos.sweep_events", ReqID: "c0-short0.2", Node: -1, Start: 3 * ms, End: 8 * ms},
		{ID: 4, Name: "httpapi.POST_v1_sweeps", ReqID: "c0-short0.1", Node: 0, Start: 2 * ms, End: 3 * ms},
	}
	got := selfTimes(spans)
	want := map[string]float64{
		"op.short":               3, // 10 minus the union [1, 8)
		"vos.submit_sweep":       2, // 3 minus its handler's 1
		"vos.sweep_events":       5,
		"httpapi.POST_v1_sweeps": 1,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v ms, want %v", name, got[name], w)
		}
	}
}

func TestDigestBook(t *testing.T) {
	b := newDigestBook(nil)
	if err := b.check("k", "aaa"); err != nil {
		t.Fatal(err)
	}
	if err := b.check("k", "aaa"); err != nil {
		t.Fatal(err)
	}
	if err := b.check("k", "aab"); err == nil {
		t.Fatal("a digest differing from the run's first passed")
	}
	g := newDigestBook(map[string]string{"k": "aaa"})
	if err := g.check("k", "aab"); err == nil {
		t.Fatal("a digest differing from the committed one passed")
	}
	if err := g.check("other", "aaa"); err == nil {
		t.Fatal("a spec without a committed digest passed")
	}
}

// TestPerturbedGoldenFailsRun runs fig8_cold at the default seed against
// a committed digest table with one digest altered: the run must fail
// without printing a result.
func TestPerturbedGoldenFailsRun(t *testing.T) {
	golden, err := loadGolden("golden/fig8_cold_seed1.json")
	if err != nil {
		t.Fatal(err)
	}
	golden["long"] = strings.Repeat("0", 64)
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "perfbench", "golden"), 0o755); err != nil {
		t.Fatal(err)
	}
	data, _ := json.Marshal(golden)
	if err := os.WriteFile(filepath.Join(root, goldenPath), data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Chdir(root)
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "fig8_cold", "--seed", "1", "--seconds", "0.5", "--trace", "0"}, &stdout, &stderr)
	if code == 0 || stdout.Len() != 0 {
		t.Fatalf("perturbed digest: exit %d, stdout %q; want a failed run with no result", code, stdout.String())
	}
	if !strings.Contains(stderr.String(), "differs from the committed") {
		t.Fatalf("failure does not name the digest mismatch: %s", stderr.String())
	}
}

// TestSimulationInWindowFails boots serve_warm and simulates one point
// the working set does not hold inside the window: the window check
// must fail.
func TestSimulationInWindowFails(t *testing.T) {
	in, err := newSweepInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{seed: 3, dir: t.TempDir(), book: newDigestBook(nil), workers: 1, clients: 1}
	s := &serveWarm{in: in, env: e}
	defer s.close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.boot(ctx); err != nil {
		t.Fatal(err)
	}
	s.startWindow()
	if _, err := s.op(ctx, 0, 1, false); err != nil {
		t.Fatal(err)
	}
	if err := s.endWindow(); err != nil {
		t.Fatalf("an all-hit window failed its check: %v", err)
	}
	s.startWindow()
	o := in.Operators[0]
	cold := in.operatorSpec(o).Seed(in.Seed + 1).Triads(o.Triads[0])
	if _, err := s.fl.remotes[0][0].Run(ctx, cold); err != nil {
		t.Fatal(err)
	}
	if err := s.endWindow(); err == nil {
		t.Fatal("a simulation inside the timed window passed the check")
	}
}

func TestReadinessRidesOut503(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			http.NotFound(w, r)
			return
		}
		if calls.Add(1) <= 3 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	n, err := waitReady(context.Background(), srv.Client(), srv.URL)
	if err != nil || n != 3 {
		t.Fatalf("waitReady = %d, %v; want 3 rode-out 503s and no error", n, err)
	}

	never := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer never.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := waitReady(ctx, never.Client(), never.URL); err == nil {
		t.Fatal("waitReady returned without the member ever becoming ready")
	}

	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer broken.Close()
	if _, err := waitReady(context.Background(), broken.Client(), broken.URL); err == nil {
		t.Fatal("waitReady accepted a 500")
	}
}

// benchmarkJSON is the part of BENCHMARK.json the names test reads.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, w := range b.Workloads {
		want = append(want, w.Name)
	}
	for _, w := range workloads {
		got = append(got, w.name)
	}
	sameSet(t, "workloads", want, got)
	want, got = nil, nil
	for _, m := range b.EndToEnd {
		want = append(want, m.Name+" "+m.Unit)
	}
	for _, m := range endToEnd {
		got = append(got, m.Name+" "+m.Unit)
	}
	sameSet(t, "end_to_end", want, got)
	want, got = nil, nil
	for _, m := range b.PerLayer {
		want = append(want, m.Name+" "+m.Unit)
	}
	for _, m := range perLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	sameSet(t, "per_layer", want, got)
}

// TestPrintedNames runs fig8_cold briefly, untraced and traced, and
// checks the last output line carries exactly the declared metrics.
func TestPrintedNames(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, tc := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "fig8_cold", "--seed", "5", "--seconds", "0.5", "--trace", tc.trace}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", tc.trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("trace %s: correct=%v attempted=%d failed=%d: %s", tc.trace, res.Correct, res.Attempted, res.Failed, stderr.String())
		}
		var want, got []string
		for _, d := range tc.defs {
			want = append(want, d.Name+" "+d.Unit)
		}
		for name, v := range res.Metrics {
			got = append(got, name+" "+v.Unit)
		}
		sameSet(t, "printed trace "+tc.trace, want, got)
	}
}

func sameSet(t *testing.T, what string, want, got []string) {
	t.Helper()
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(want, "\n") != strings.Join(got, "\n") {
		t.Errorf("%s differ:\nBENCHMARK.json / declared:\n%s\nbenchmark:\n%s", what, strings.Join(want, "\n"), strings.Join(got, "\n"))
	}
}

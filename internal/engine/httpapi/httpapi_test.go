package httpapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden response fixtures")

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	eng, err := engine.New(engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(New(eng))
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("GET %s: Content-Type %q", url, ct)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
}

func submit(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || sr.ID == "" {
		t.Fatalf("submit: status %d id %q", resp.StatusCode, sr.ID)
	}
	return sr.ID
}

func waitDone(t *testing.T, ts *httptest.Server, id string) engine.Sweep {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	var sw engine.Sweep
	for {
		getJSON(t, ts.URL+"/v1/sweeps/"+id, http.StatusOK, &sw)
		switch sw.Status {
		case engine.StatusDone:
			return sw
		case engine.StatusFailed, engine.StatusCanceled:
			t.Fatalf("sweep ended %s: %s", sw.Status, sw.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep still %s after 60s (%d/%d points)",
				sw.Status, sw.Progress.Completed, sw.Progress.TotalPoints)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSubmitPollResults drives the full async lifecycle over HTTP:
// healthz, submit, poll status, fetch results, check cache stats, then
// resubmit and require an all-cache-hit run.
func TestSubmitPollResults(t *testing.T) {
	ts := newTestServer(t)

	var health HealthResponse
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &health)
	if health.Status != "ok" || health.Workers != 2 {
		t.Fatalf("healthz = %+v", health)
	}

	body := `{"arches":["RCA"],"widths":[4],"patterns":40,"seed":7}`
	id := submit(t, ts, body)
	sw := waitDone(t, ts, id)
	if sw.Results != nil {
		t.Error("status endpoint leaked full results")
	}
	if sw.Progress.Completed != sw.Progress.TotalPoints || sw.Progress.TotalPoints == 0 {
		t.Fatalf("progress %+v", sw.Progress)
	}

	var full engine.Sweep
	getJSON(t, ts.URL+"/v1/sweeps/"+id+"/results", http.StatusOK, &full)
	if len(full.Results) != 1 {
		t.Fatalf("results: %d operators, want 1", len(full.Results))
	}
	op := full.Results[0]
	if op.Bench != "4-bit RCA" || len(op.Points) != 43 {
		t.Fatalf("operator %q with %d points", op.Bench, len(op.Points))
	}
	if op.Report == nil || op.Report.CriticalPath <= 0 {
		t.Fatal("missing synthesis report in results")
	}
	if len(op.SortedIdx) != len(op.Points) {
		t.Fatalf("sortedIdx has %d entries", len(op.SortedIdx))
	}
	for i := 1; i < len(op.SortedIdx); i++ {
		if op.Points[op.SortedIdx[i-1]].BER > op.Points[op.SortedIdx[i]].BER {
			t.Fatal("sortedIdx not ordered by BER")
		}
	}

	var stats CacheStatsResponse
	getJSON(t, ts.URL+"/v1/cache/stats", http.StatusOK, &stats)
	if stats.Executions == 0 || stats.Stores == 0 {
		t.Fatalf("cache stats after a sweep: %+v", stats)
	}

	// An identical resubmission must be all cache hits.
	id2 := submit(t, ts, body)
	sw = waitDone(t, ts, id2)
	if sw.Progress.Executed != 0 || sw.Progress.CacheHits != sw.Progress.TotalPoints {
		t.Fatalf("resubmitted sweep progress %+v, want all cache hits", sw.Progress)
	}

	var list []engine.Sweep
	getJSON(t, ts.URL+"/v1/sweeps", http.StatusOK, &list)
	if len(list) != 2 {
		t.Fatalf("list: %d sweeps, want 2", len(list))
	}
}

// readEvents consumes the NDJSON stream until it closes, returning every
// event in order.
func readEvents(t *testing.T, ts *httptest.Server, id string) []engine.SweepEvent {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events Content-Type %q", ct)
	}
	var events []engine.SweepEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev engine.SweepEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestEventsStream is the streaming acceptance check: the event stream
// of a two-operator sweep delivers at least one point event (in fact,
// all 43) per operator before the terminal event, with monotonic
// progress and the terminal event last. The engine replays the sweep's
// event history to subscribers, so this holds however the subscription
// races the sweep's execution.
func TestEventsStream(t *testing.T) {
	ts := newTestServer(t)
	id := submit(t, ts, `{"arches":["RCA","BKA"],"widths":[4],"patterns":40,"seed":7}`)
	events := readEvents(t, ts, id)
	if len(events) < 3 {
		t.Fatalf("only %d events", len(events))
	}
	last := events[len(events)-1]
	if last.Type != engine.EventDone || last.Status != engine.StatusDone {
		t.Fatalf("terminal event = %+v", last)
	}
	if last.Progress.Completed != last.Progress.TotalPoints || last.Progress.TotalPoints != 86 {
		t.Fatalf("terminal progress %+v, want 86/86", last.Progress)
	}
	pointsPerBench := map[string]int{}
	completed := 0
	for i, ev := range events {
		if ev.SweepID != id {
			t.Fatalf("event %d carries sweep id %q", i, ev.SweepID)
		}
		if ev.Progress.Completed < completed {
			t.Fatalf("progress went backwards at event %d: %d -> %d", i, completed, ev.Progress.Completed)
		}
		completed = ev.Progress.Completed
		if ev.Type == engine.EventPoint {
			if i == len(events)-1 {
				t.Fatal("point event after terminal position")
			}
			if ev.Point == nil || ev.Bench == "" {
				t.Fatalf("point event %d lacks payload: %+v", i, ev)
			}
			pointsPerBench[ev.Bench]++
		}
	}
	for _, bench := range []string{"4-bit RCA", "4-bit BKA"} {
		if pointsPerBench[bench] != 43 {
			t.Errorf("%d point events for %s before the terminal event, want 43", pointsPerBench[bench], bench)
		}
	}
}

// TestEventsAfterDone subscribes to a finished sweep and expects the
// full replayed history, terminal event last.
func TestEventsAfterDone(t *testing.T) {
	ts := newTestServer(t)
	id := submit(t, ts, `{"arches":["RCA"],"widths":[4],"patterns":40,"seed":7}`)
	waitDone(t, ts, id)
	events := readEvents(t, ts, id)
	if len(events) == 0 || events[len(events)-1].Type != engine.EventDone {
		t.Fatalf("late subscription got %d events", len(events))
	}
	points := 0
	for _, ev := range events {
		if ev.Type == engine.EventPoint {
			points++
		}
	}
	if points != 43 {
		t.Fatalf("late subscription replayed %d point events, want 43", points)
	}
}

// bigSweepBody is a sweep that takes many seconds of simulation (4
// operators × 43 triads × 20000 patterns), so tests exercising the
// while-running and cancellation paths cannot lose the race against its
// completion even on a slow single-core runner.
const bigSweepBody = `{"arches":["RCA","BKA"],"widths":[16,24],"patterns":20000,"seed":3}`

// TestCancelAndEvents cancels a long sweep and expects the stream to end
// with a canceled terminal event, and the results endpoint to report 410
// with the sweep_canceled code.
func TestCancelAndEvents(t *testing.T) {
	ts := newTestServer(t)
	id := submit(t, ts, bigSweepBody)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("cancel: status %d", dresp.StatusCode)
	}

	events := readEvents(t, ts, id)
	last := events[len(events)-1]
	if last.Type != engine.EventCanceled {
		t.Fatalf("terminal event after cancel = %+v", last)
	}

	var env ErrorEnvelope
	getJSON(t, ts.URL+"/v1/sweeps/"+id+"/results", http.StatusGone, &env)
	if env.Error.Code != CodeSweepCanceled {
		t.Fatalf("results after cancel: %+v", env)
	}
}

// TestErrorEnvelope exercises every error path and requires the
// structured envelope with the right code on each.
func TestErrorEnvelope(t *testing.T) {
	ts := newTestServer(t)
	check := func(resp *http.Response, wantStatus int, wantCode string) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("status %d, want %d", resp.StatusCode, wantStatus)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("error Content-Type %q", ct)
		}
		var env ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("decode envelope: %v", err)
		}
		if env.Error.Code != wantCode || env.Error.Message == "" {
			t.Fatalf("envelope %+v, want code %q", env, wantCode)
		}
	}

	for _, body := range []string{`{"arches":["CLA"]}`, `{"widths":[99]}`, `{"bogusField":1}`, `not json`} {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		check(resp, http.StatusBadRequest, CodeInvalidRequest)
	}

	for _, path := range []string{"/v1/sweeps/s-999999", "/v1/sweeps/s-999999/results", "/v1/sweeps/s-999999/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		check(resp, http.StatusNotFound, CodeNotFound)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/s-999999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusNotFound, CodeNotFound)

	// net/http fallbacks must speak the envelope too.
	resp, err = http.Get(ts.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusNotFound, CodeNotFound)

	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/v1/sweeps", strings.NewReader("{}"))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusMethodNotAllowed, CodeMethodNotAllowed)

	// A running sweep's results answer 409 with the sweep_running code.
	id := submit(t, ts, bigSweepBody)
	resp, err = http.Get(ts.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusConflict, CodeSweepRunning)
}

// timeRe normalizes RFC3339 timestamps in golden fixtures.
var timeRe = regexp.MustCompile(`"(created|started|finished)": "[^"]+"`)

func normalize(body []byte) []byte {
	return timeRe.ReplaceAll(body, []byte(`"$1": "TS"`))
}

func checkGolden(t *testing.T, name string, body []byte) {
	t.Helper()
	body = normalize(body)
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("%s drifted from golden; run `go test ./internal/engine/httpapi -update` if intended.\ngot:\n%s\nwant:\n%s",
			name, body, want)
	}
}

func fetchBody(t *testing.T, method, url string, body string) []byte {
	t.Helper()
	var req *http.Request
	var err error
	if body != "" {
		req, err = http.NewRequest(method, url, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	} else {
		req, err = http.NewRequest(method, url, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenResponses pins the /v1 response shapes — including the full
// results of a small deterministic sweep — against committed fixtures.
// The engine is deterministic in the request seed, so these bodies are
// stable down to the float values; timestamps are normalized.
func TestGoldenResponses(t *testing.T) {
	ts := newTestServer(t)

	checkGolden(t, "healthz.golden.json", fetchBody(t, http.MethodGet, ts.URL+"/healthz", ""))
	checkGolden(t, "error_not_found.golden.json", fetchBody(t, http.MethodGet, ts.URL+"/v1/sweeps/s-999999", ""))
	checkGolden(t, "error_bad_request.golden.json", fetchBody(t, http.MethodPost, ts.URL+"/v1/sweeps", `{"arches":["CLA"]}`))
	checkGolden(t, "error_unknown_route.golden.json", fetchBody(t, http.MethodGet, ts.URL+"/v1/nope", ""))

	body := `{"arches":["RCA"],"widths":[4],"patterns":8,"seed":1,"policy":"vddgrid","vdds":[1.0,0.5]}`
	checkGolden(t, "submit.golden.json", fetchBody(t, http.MethodPost, ts.URL+"/v1/sweeps", body))
	waitDone(t, ts, "s-000001")
	checkGolden(t, "status_done.golden.json", fetchBody(t, http.MethodGet, ts.URL+"/v1/sweeps/s-000001", ""))
	checkGolden(t, "results.golden.json", fetchBody(t, http.MethodGet, ts.URL+"/v1/sweeps/s-000001/results", ""))
	checkGolden(t, "cache_stats.golden.json", fetchBody(t, http.MethodGet, ts.URL+"/v1/cache/stats", ""))

	// The event-stream golden uses a single-point sweep so the replayed
	// event order is fully deterministic (concurrent multi-point sweeps
	// complete their points in scheduler order).
	evBody := `{"arches":["RCA"],"widths":[4],"patterns":8,"seed":1,"policy":"vddgrid","vdds":[0.7]}`
	id2 := submit(t, ts, evBody)
	waitDone(t, ts, id2)
	events := readEvents(t, ts, id2)
	var lines bytes.Buffer
	enc := json.NewEncoder(&lines)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, "events_done.golden.ndjson", lines.Bytes())

	// Monte Carlo: a one-kernel, one-triad, one-rep job keeps every body
	// (including the raw event stream) deterministic.
	checkGolden(t, "mc_error_not_found.golden.json", fetchBody(t, http.MethodGet, ts.URL+"/v1/mc/mc-999999", ""))
	checkGolden(t, "mc_error_bad_request.golden.json", fetchBody(t, http.MethodPost, ts.URL+"/v1/mc", `{"kernels":["nope"]}`))
	mcBody := `{"kernels":["fir"],"samples":1,"policy":"triads","triads":[{"tclk":1,"vdd":0.6,"vbb":0}]}`
	checkGolden(t, "mc_submit.golden.json", fetchBody(t, http.MethodPost, ts.URL+"/v1/mc", mcBody))
	waitMCDone(t, ts, "mc-000001")
	checkGolden(t, "mc_status_done.golden.json", fetchBody(t, http.MethodGet, ts.URL+"/v1/mc/mc-000001", ""))
	checkGolden(t, "mc_results.golden.json", fetchBody(t, http.MethodGet, ts.URL+"/v1/mc/mc-000001/results", ""))
	checkGolden(t, "mc_events_done.golden.ndjson", fetchBody(t, http.MethodGet, ts.URL+"/v1/mc/mc-000001/events", ""))
}

func waitMCDone(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var job engine.MCJob
		getJSON(t, ts.URL+"/v1/mc/"+id, http.StatusOK, &job)
		switch job.Status {
		case engine.StatusDone:
			return
		case engine.StatusFailed, engine.StatusCanceled:
			t.Fatalf("mc job ended %s: %s", job.Status, job.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("mc job still %s after 60s", job.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

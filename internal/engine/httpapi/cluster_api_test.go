package httpapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
)

// mapStore is an in-memory CacheStore for endpoint tests.
type mapStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (s *mapStore) GetLocal(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.m[key]
	return data, ok
}

func (s *mapStore) PutLocal(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = data
	return nil
}

func newOptServer(t *testing.T, opts ...Option) *httptest.Server {
	t.Helper()
	eng, err := engine.New(engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(New(eng, opts...))
	t.Cleanup(ts.Close)
	return ts
}

func doReq(t *testing.T, method, url, body string) *http.Response {
	t.Helper()
	var rd *strings.Reader
	if body != "" {
		rd = strings.NewReader(body)
	} else {
		rd = strings.NewReader("")
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestCacheEntryEndpoints drives the peer-tier surface: PUT then GET
// round-trips raw entries, and the key and body validation holds.
func TestCacheEntryEndpoints(t *testing.T) {
	store := &mapStore{m: make(map[string][]byte)}
	ts := newOptServer(t, WithCacheStore(store))
	key := strings.Repeat("0f", 32)
	base := ts.URL + "/v1/cache/entries/"

	resp := doReq(t, http.MethodGet, base+key, "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET absent entry: status %d", resp.StatusCode)
	}

	resp = doReq(t, http.MethodPut, base+key, `{"v":1}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT: status %d", resp.StatusCode)
	}

	resp = doReq(t, http.MethodGet, base+key, "")
	data := new(bytes.Buffer)
	data.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || data.String() != `{"v":1}` {
		t.Fatalf("GET: status %d body %q", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET Content-Type = %q", ct)
	}

	// Malformed keys and bodies must be rejected before touching the
	// store: keys become file names, bodies become cache truth.
	for _, bad := range []string{"short", strings.Repeat("0F", 32), strings.Repeat("zz", 32), "../../etc/passwd"} {
		resp = doReq(t, http.MethodPut, base+bad, `{}`)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound &&
			resp.StatusCode != http.StatusMovedPermanently {
			t.Fatalf("PUT key %q: status %d", bad, resp.StatusCode)
		}
	}
	resp = doReq(t, http.MethodPut, base+key, `{broken`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PUT invalid JSON: status %d", resp.StatusCode)
	}
	if data, _ := store.GetLocal(key); string(data) != `{"v":1}` {
		t.Fatalf("store poisoned: %q", data)
	}
}

// TestCacheEntryPutRejectsNonPoint: a PUT of valid JSON that is no point
// result must not reach the node's cache — it would be served as a hit —
// so it answers 400 invalid_request, and the sweep over the point
// computes it.
func TestCacheEntryPutRejectsNonPoint(t *testing.T) {
	cache, err := engine.NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.Options{Workers: 2, Backend: cache})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(New(eng, WithCacheStore(cache)))
	t.Cleanup(ts.Close)

	body := `{"arches":["RCA"],"widths":[4],"patterns":40,"seed":7,"policy":"triads","triads":[{"tclk":0.5,"vdd":0.8,"vbb":0}]}`
	var req engine.Request
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	cfg, err := req.OperatorConfig("RCA", 4)
	if err != nil {
		t.Fatal(err)
	}
	key, err := engine.PointKey(cfg, req.Triads[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{`{}`, `null`, `{"Acc":null}`} {
		resp := doReq(t, http.MethodPut, ts.URL+"/v1/cache/entries/"+key, bad)
		var env ErrorEnvelope
		err := json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || env.Error.Code != CodeInvalidRequest {
			t.Errorf("PUT %s: status %d, envelope %+v (%v); want 400 invalid_request", bad, resp.StatusCode, env, err)
		}
	}
	if sw := waitDone(t, ts, submit(t, ts, body)); sw.Progress.Executed != 1 {
		t.Fatalf("progress %+v; want the point computed", sw.Progress)
	}
}

// TestCacheEntryEndpointsDisabled checks the endpoints 404 on a daemon
// without a store.
func TestCacheEntryEndpointsDisabled(t *testing.T) {
	ts := newOptServer(t)
	resp := doReq(t, http.MethodGet, ts.URL+"/v1/cache/entries/"+strings.Repeat("00", 32), "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Code != CodeNotFound {
		t.Fatalf("envelope %+v, err %v", env, err)
	}
}

// TestClusterStatusEndpoint checks the endpoint serves the callback's
// value when clustered and a 404 envelope otherwise.
func TestClusterStatusEndpoint(t *testing.T) {
	ts := newOptServer(t)
	resp := doReq(t, http.MethodGet, ts.URL+"/v1/cluster/status", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unclustered: status %d", resp.StatusCode)
	}

	ts2 := newOptServer(t, WithClusterStatus(func() any {
		return map[string]any{"self": "http://n1"}
	}))
	var body map[string]any
	getJSON(t, ts2.URL+"/v1/cluster/status", http.StatusOK, &body)
	if body["self"] != "http://n1" {
		t.Fatalf("body = %v", body)
	}
}

// TestTenantQuota checks the per-tenant in-flight cap: over-cap
// submissions 429, other tenants and the exempt tenant pass, and
// terminal sweeps free their slot.
func TestTenantQuota(t *testing.T) {
	ts := newOptServer(t, WithTenantQuota(1, "cluster-internal"))
	// Big enough to stay in flight across the assertions below: every
	// architecture at three widths, paper pattern count.
	big := `{"arches":["RCA","BKA","KSA","SKL","CSEL"],"widths":[16,32],"patterns":20000}`
	small := `{"widths":[4],"patterns":20}`

	submitAs := func(tenant, body string) (int, string) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweeps", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			req.Header.Set("X-Vos-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr SubmitResponse
		json.NewDecoder(resp.Body).Decode(&sr)
		return resp.StatusCode, sr.ID
	}

	status, id := submitAs("alice", big)
	if status != http.StatusAccepted {
		t.Fatalf("first submit: status %d", status)
	}
	if status, _ := submitAs("alice", small); status != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, want 429", status)
	}
	if status, id2 := submitAs("bob", small); status != http.StatusAccepted {
		t.Fatalf("other tenant: status %d", status)
	} else {
		defer doReq(t, http.MethodDelete, ts.URL+"/v1/sweeps/"+id2, "").Body.Close()
	}
	// The cluster-internal shard tenant is exempt: a coordinator's
	// fan-out must never be throttled by the sweep that spawned it.
	for i := 0; i < 2; i++ {
		status, idx := submitAs("cluster-internal", small)
		if status != http.StatusAccepted {
			t.Fatalf("exempt tenant submit %d: status %d", i, status)
		}
		defer doReq(t, http.MethodDelete, ts.URL+"/v1/sweeps/"+idx, "").Body.Close()
	}

	// Cancel the big sweep; once terminal it must free alice's slot.
	resp := doReq(t, http.MethodDelete, ts.URL+"/v1/sweeps/"+id, "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	waitTerminal(t, ts, id)
	status, id3 := submitAs("alice", small)
	if status != http.StatusAccepted {
		t.Fatalf("post-cancel submit: status %d, want the slot freed", status)
	}
	doReq(t, http.MethodDelete, ts.URL+"/v1/sweeps/"+id3, "").Body.Close()
}

// TestTenantQuotaSpansKinds checks that sweeps and Monte Carlo jobs
// draw from one in-flight budget: with quota 1, a tenant holding a
// running job of either kind is refused a job of the other kind.
func TestTenantQuotaSpansKinds(t *testing.T) {
	ts := newOptServer(t, WithTenantQuota(1))
	bigMC := `{"kernels":["fir"],"samples":100000000,"policy":"triads","triads":[{"tclk":4,"vdd":0.9,"vbb":0}]}`
	smallMC := `{"kernels":["fir"],"samples":1,"policy":"triads","triads":[{"tclk":4,"vdd":0.9,"vbb":0}]}`
	smallSweep := `{"widths":[4],"patterns":20}`

	submitAs := func(tenant, path, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Vos-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr SubmitResponse
		json.NewDecoder(resp.Body).Decode(&sr)
		return resp.StatusCode, sr.ID
	}
	for _, c := range []struct{ tenant, holdPath, hold, tryPath, try string }{
		{"alice", "/v1/mc", bigMC, "/v1/sweeps", smallSweep},
		{"bob", "/v1/sweeps", bigSweepBody, "/v1/mc", smallMC},
	} {
		status, id := submitAs(c.tenant, c.holdPath, c.hold)
		if status != http.StatusAccepted {
			t.Fatalf("%s: first submit to %s: status %d", c.tenant, c.holdPath, status)
		}
		if status, _ := submitAs(c.tenant, c.tryPath, c.try); status != http.StatusTooManyRequests {
			t.Errorf("%s: submit to %s with a job from %s in flight: status %d, want 429",
				c.tenant, c.tryPath, c.holdPath, status)
		}
		doReq(t, http.MethodDelete, ts.URL+c.holdPath+"/"+id, "").Body.Close()
	}
}

// waitTerminal polls the sweep until it reaches a terminal state. A
// canceled sweep ends only once its in-flight group returns, which a
// loaded host can stretch well past a second, so the bound is a minute
// of wall time rather than a count of requests.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		var sw engine.Sweep
		getJSON(t, ts.URL+"/v1/sweeps/"+id, http.StatusOK, &sw)
		switch sw.Status {
		case engine.StatusDone, engine.StatusFailed, engine.StatusCanceled:
			return
		}
	}
	t.Fatalf("sweep %s never reached a terminal state", id)
}

// TestAccessLog checks the structured request log: one JSON line per
// request with id, status and cache counters, and the X-Request-Id
// response header (incoming ids preserved).
func TestAccessLog(t *testing.T) {
	eng, err := engine.New(engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	var buf syncBuffer
	ts := httptest.NewServer(AccessLog(New(eng), &buf, eng.CacheStats))
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	gotID := resp.Header.Get("X-Request-Id")
	if !strings.HasPrefix(gotID, "r-") {
		t.Fatalf("X-Request-Id = %q", gotID)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/sweeps/s-999999", nil)
	req.Header.Set("X-Request-Id", "trace-42")
	req.Header.Set("X-Vos-Tenant", "alice")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); got != "trace-42" {
		t.Fatalf("incoming request id not preserved: %q", got)
	}

	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	var entries []AccessEntry
	for sc.Scan() {
		var e AccessEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("log line %q: %v", sc.Text(), err)
		}
		entries = append(entries, e)
	}
	if len(entries) != 2 {
		t.Fatalf("%d log lines, want 2: %q", len(entries), buf.String())
	}
	if e := entries[0]; e.ID != gotID || e.Method != http.MethodGet || e.Path != "/healthz" || e.Status != http.StatusOK {
		t.Fatalf("healthz entry = %+v", e)
	}
	if e := entries[1]; e.ID != "trace-42" || e.Status != http.StatusNotFound || e.Tenant != "alice" {
		t.Fatalf("not-found entry = %+v", e)
	}
	for _, e := range entries {
		if e.Time == "" || e.Duration < 0 {
			t.Fatalf("entry missing timing: %+v", e)
		}
	}
}

// syncBuffer guards the log buffer against the race detector: the
// handler goroutines write while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

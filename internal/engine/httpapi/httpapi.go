// Package httpapi is the reusable HTTP surface of the sweep engine: the
// /v1 REST routes that cmd/vosd mounts and the vos SDK's Remote client
// speaks. Keeping the handlers out of package main makes the API
// testable against the real mux (httptest) and reusable by any embedding
// daemon.
//
// The surface is documented in API.md at the repository root; the
// response shapes are pinned by golden files in testdata/.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/engine"
)

// Error codes of the structured error envelope. They are part of the
// public API: the vos SDK maps them back to typed errors.
const (
	CodeInvalidRequest   = "invalid_request"
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeSweepRunning     = "sweep_running"
	CodeSweepFailed      = "sweep_failed"
	CodeSweepCanceled    = "sweep_canceled"
	CodeEngineClosed     = "engine_closed"
	CodeQuotaExceeded    = "quota_exceeded"
	CodeInternal         = "internal"
	// CodeAlreadyDone rejects a cancel aimed at a job that already
	// reached a terminal state (409).
	CodeAlreadyDone = "already_done"
	// CodeNotReady and CodeDraining are 503s with a Retry-After header:
	// the daemon is replaying its journal (submissions and unresolved id
	// lookups will succeed shortly) or draining toward shutdown.
	CodeNotReady = "not_ready"
	CodeDraining = "draining"
)

// ErrorInfo is the body of the error envelope.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope is the uniform non-2xx response body:
// {"error":{"code":"...","message":"..."}}.
type ErrorEnvelope struct {
	Error ErrorInfo `json:"error"`
}

// SubmitResponse is the 202 body of POST /v1/sweeps and POST /v1/mc.
type SubmitResponse struct {
	ID string `json:"id"`
}

// CacheStatsResponse is the body of GET /v1/cache/stats.
type CacheStatsResponse struct {
	engine.CacheStats
	Hits       uint64 `json:"hits"`
	Executions uint64 `json:"executions"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status  string `json:"status"`
	Workers int    `json:"workers"`
}

// ReadyResponse is the body of GET /readyz: the engine lifecycle state
// ("ready", "recovering" or "draining"). Non-ready states answer 503
// with a Retry-After header, so the endpoint plugs straight into load
// balancer readiness checks.
type ReadyResponse struct {
	State string `json:"state"`
}

// CacheStore is the local layer of the node's result cache, exposed as
// raw content-addressed entries on /v1/cache/entries/{key} so peer vosd
// nodes can fill their misses from each other. GetLocal and PutLocal
// must not recurse into any peer tier — these endpoints are what the
// peer tier itself calls. PutLocal refuses, storing nothing, an entry
// the store cannot hold (engine.Cache: one that does not decode as a
// point result).
type CacheStore interface {
	GetLocal(key string) ([]byte, bool)
	PutLocal(key string, data []byte) error
}

// Option configures optional server features on New.
type Option func(*server)

// WithCacheStore enables the raw cache-entry endpoints (GET/PUT
// /v1/cache/entries/{key}) backed by the given store. The endpoints are
// a trusted-cluster surface: any holder can read and overwrite entries,
// so expose them only on networks every vosd node of the fleet is
// trusted on.
func WithCacheStore(store CacheStore) Option {
	return func(s *server) { s.store = store }
}

// WithClusterStatus enables GET /v1/cluster/status, serving whatever
// the callback returns (the cluster layer's membership/breaker/ring
// snapshot) as JSON.
func WithClusterStatus(status func() any) Option {
	return func(s *server) { s.clusterStatus = status }
}

// WithTenantQuota caps the number of in-flight (pending or running)
// jobs — sweeps and Monte Carlo jobs together — per tenant; submissions
// beyond the cap are rejected with a 429 quota_exceeded envelope.
// Tenants are named by the X-Vos-Tenant request header (missing or empty
// means "default"); the header is self-declared, so this is cooperative
// fair-use accounting, not authentication. n <= 0 disables the quota.
// The exempt tenants bypass the cap entirely — the cluster layer exempts
// its shard-dispatch tenant so a coordinator's fan-out is never
// throttled by the very job that spawned it.
func WithTenantQuota(n int, exempt ...string) Option {
	return func(s *server) {
		if n <= 0 {
			return
		}
		q := &tenantQuota{max: n, live: make(map[string][]string), exempt: make(map[string]bool)}
		for _, t := range exempt {
			q.exempt[t] = true
		}
		s.quota = q
	}
}

// New returns the engine's v1 API handler:
//
//	POST   /v1/sweeps              submit a sweep (engine.Request JSON) → 202 {"id"}
//	GET    /v1/sweeps              list all sweeps (status only)
//	GET    /v1/sweeps/{id}         one sweep's status and progress
//	GET    /v1/sweeps/{id}/results full results once done (409 envelope while running)
//	GET    /v1/sweeps/{id}/events  NDJSON event stream until the terminal event
//	DELETE /v1/sweeps/{id}         cancel a pending/running sweep → 204
//	POST   /v1/mc                  submit a Monte Carlo job (engine.MCRequest JSON) → 202 {"id"}
//	GET    /v1/mc/{id}             one job's status and progress
//	GET    /v1/mc/{id}/results     full per-point results once done (409 envelope while running)
//	GET    /v1/mc/{id}/events      NDJSON event stream until the terminal event
//	DELETE /v1/mc/{id}             cancel a pending/running job → 204
//	GET    /v1/cache/stats         result-cache and execution counters
//	GET    /v1/cache/entries/{key} raw cache entry (WithCacheStore only)
//	PUT    /v1/cache/entries/{key} store a cache entry (WithCacheStore only)
//	GET    /v1/cluster/status      cluster membership (WithClusterStatus only)
//	GET    /v1/jobs                durable job registry (sweeps + mc, journal-recovered flags)
//	GET    /healthz                liveness probe
//	GET    /readyz                 readiness: 200 ready, 503 recovering/draining
func New(eng *engine.Engine, opts ...Option) http.Handler {
	s := &server{eng: eng}
	for _, opt := range opts {
		opt(s)
	}
	m := http.NewServeMux()
	mountJobs(s, m, "/v1/sweeps", jobRoutes[engine.Request, engine.Sweep, engine.SweepEvent]{
		noun: "sweep", submit: eng.Submit, get: eng.Get, subscribe: eng.Subscribe, cancel: eng.Cancel,
		info:       engine.Sweep.Info,
		statusOnly: func(sw engine.Sweep) engine.Sweep { sw.Results = nil; return sw },
	})
	m.HandleFunc("GET /v1/sweeps", s.listSweeps)
	mountJobs(s, m, "/v1/mc", jobRoutes[engine.MCRequest, engine.MCJob, engine.MCEvent]{
		noun: "mc job", submit: eng.SubmitMC, get: eng.GetMC, subscribe: eng.SubscribeMC, cancel: eng.CancelMC,
		info:       engine.MCJob.Info,
		statusOnly: func(job engine.MCJob) engine.MCJob { job.Points = nil; return job },
	})
	m.HandleFunc("GET /v1/cache/stats", s.cacheStats)
	m.HandleFunc("GET /v1/cache/entries/{key}", s.getCacheEntry)
	m.HandleFunc("PUT /v1/cache/entries/{key}", s.putCacheEntry)
	m.HandleFunc("GET /v1/cluster/status", s.getClusterStatus)
	m.HandleFunc("GET /v1/jobs", s.listJobs)
	m.HandleFunc("GET /healthz", s.healthz)
	m.HandleFunc("GET /readyz", s.readyz)
	return envelopeMiddleware(m)
}

// envelopeMiddleware converts the mux's own plain-text fallbacks (404 for
// unknown routes, 405 for method mismatches) into the structured error
// envelope, so *every* non-2xx response of the API — including the ones
// net/http generates — has the same JSON shape and Content-Type.
func envelopeMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&envelopeWriter{ResponseWriter: w, req: r}, r)
	})
}

// envelopeWriter rewrites non-JSON 404/405 responses. Handlers in this
// package always set Content-Type: application/json before WriteHeader,
// so anything else hitting those statuses is a net/http fallback.
type envelopeWriter struct {
	http.ResponseWriter
	req      *http.Request
	suppress bool
}

func (w *envelopeWriter) WriteHeader(status int) {
	if (status == http.StatusNotFound || status == http.StatusMethodNotAllowed) &&
		w.Header().Get("Content-Type") != "application/json" {
		w.suppress = true // swallow the plain-text body that follows
		code, msg := CodeNotFound, fmt.Sprintf("no route for %s %s", w.req.Method, w.req.URL.Path)
		if status == http.StatusMethodNotAllowed {
			code, msg = CodeMethodNotAllowed, fmt.Sprintf("method %s not allowed on %s", w.req.Method, w.req.URL.Path)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Del("X-Content-Type-Options")
		w.ResponseWriter.WriteHeader(status)
		enc := json.NewEncoder(w.ResponseWriter)
		enc.SetIndent("", "  ")
		enc.Encode(ErrorEnvelope{Error: ErrorInfo{Code: code, Message: msg}})
		return
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *envelopeWriter) Write(b []byte) (int, error) {
	if w.suppress {
		return len(b), nil
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so the events stream can flush
// through the middleware.
func (w *envelopeWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

type server struct {
	eng           *engine.Engine
	store         CacheStore
	clusterStatus func() any
	quota         *tenantQuota
	// lookups resolve the job IDs of each mounted kind (see mountJobs).
	lookups []func(id string) (engine.JobInfo, bool)
}

// tenantQuota tracks each tenant's in-flight job ids. The mutex spans
// the count-check and the submission, so concurrent submissions cannot
// overshoot the cap.
type tenantQuota struct {
	mu     sync.Mutex
	max    int
	live   map[string][]string
	exempt map[string]bool
}

// admit checks the tenant against the cap and, when within it, runs
// submit and records the returned id. Terminal jobs are pruned on every
// check, so the registry tracks only live work.
func (q *tenantQuota) admit(tenant string, lookup func(id string) (engine.JobInfo, bool),
	submit func() (string, error)) (string, error, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	kept := q.live[tenant][:0]
	for _, id := range q.live[tenant] {
		if job, ok := lookup(id); ok && !(job.Status == engine.StatusDone || job.Status == engine.StatusFailed || job.Status == engine.StatusCanceled) {
			kept = append(kept, id)
		}
	}
	q.live[tenant] = kept
	if len(kept) >= q.max {
		return "", nil, false
	}
	id, err := submit()
	if err == nil {
		q.live[tenant] = append(q.live[tenant], id)
	}
	return id, err, true
}

// writeJSON emits one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError emits the structured error envelope. Every non-2xx response
// of the API goes through here, so clients can rely on the shape and the
// Content-Type unconditionally.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, ErrorEnvelope{Error: ErrorInfo{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

// Tenant returns the request's tenant name: the X-Vos-Tenant header, or
// "default" when absent.
func Tenant(r *http.Request) string {
	if t := r.Header.Get("X-Vos-Tenant"); t != "" {
		return t
	}
	return "default"
}

// writeSubmitError maps a Submit/SubmitMC failure to the envelope. The
// lifecycle refusals are retryable and say so with a Retry-After header:
// recovery typically completes in seconds, and a draining daemon's
// replacement should be up shortly.
func writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, engine.ErrRecovering):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, CodeNotReady, "%v", err)
	case errors.Is(err, engine.ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "%v", err)
	case errors.Is(err, engine.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, CodeEngineClosed, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "%v", err)
	}
}

// unknownID answers a failed id lookup. While the journal is replaying,
// the id may simply not have been re-adopted yet, so the answer is a
// retryable 503 rather than a definitive 404.
func (s *server) unknownID(w http.ResponseWriter, kind, id string) {
	if s.eng.State() == engine.StateRecovering {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, CodeNotReady,
			"journal replay in progress; %s %q not adopted yet", kind, id)
		return
	}
	writeError(w, http.StatusNotFound, CodeNotFound, "unknown %s %q", kind, id)
}

// listSweeps answers GET /v1/sweeps with every sweep's status, results
// stripped.
func (s *server) listSweeps(w http.ResponseWriter, r *http.Request) {
	sweeps := s.eng.List()
	for i := range sweeps {
		sweeps[i].Results = nil
	}
	writeJSON(w, http.StatusOK, sweeps)
}

func (s *server) cacheStats(w http.ResponseWriter, r *http.Request) {
	stats := s.eng.CacheStats()
	writeJSON(w, http.StatusOK, CacheStatsResponse{
		CacheStats: stats,
		Hits:       stats.Hits(),
		Executions: s.eng.Executions(),
	})
}

// validCacheKey reports whether key looks like a content-addressed
// entry key (64 lowercase hex chars — a SHA-256). Anything else is
// rejected before it can touch the store: keys become file names in the
// disk layer.
func validCacheKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *server) getCacheEntry(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "this daemon does not expose cache entries")
		return
	}
	key := r.PathValue("key")
	if !validCacheKey(key) {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "malformed cache key %q", key)
		return
	}
	data, ok := s.store.GetLocal(key)
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "no cache entry %s", key)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

func (s *server) putCacheEntry(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "this daemon does not expose cache entries")
		return
	}
	key := r.PathValue("key")
	if !validCacheKey(key) {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "malformed cache key %q", key)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "read entry body: %v", err)
		return
	}
	// The store's contract is valid-JSON entries only; a corrupt or
	// malicious peer must not be able to poison the local layers.
	if !json.Valid(data) {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "cache entry body is not valid JSON")
		return
	}
	if err := s.store.PutLocal(key, data); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "cache entry refused: %v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *server) getClusterStatus(w http.ResponseWriter, r *http.Request) {
	if s.clusterStatus == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "this daemon is not part of a cluster")
		return
	}
	writeJSON(w, http.StatusOK, s.clusterStatus())
}

func (s *server) listJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.eng.Jobs()
	if jobs == nil {
		jobs = []engine.JobInfo{}
	}
	writeJSON(w, http.StatusOK, jobs)
}

func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Workers: s.eng.Workers()})
}

func (s *server) readyz(w http.ResponseWriter, r *http.Request) {
	state := s.eng.State()
	status := http.StatusOK
	if state != engine.StateReady {
		w.Header().Set("Retry-After", "1")
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, ReadyResponse{State: state})
}

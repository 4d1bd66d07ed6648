package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
)

// span is one timed interval at a layer seam. Spans of one op share
// ReqID's prefix (the op's id); a client HTTP span and the node handler
// span serving it share the full ReqID, carried as X-Request-Id.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	ReqID  string `json:"reqId,omitempty"`
	// Node is the serving cluster member of handler and outbound spans;
	// -1 for the benchmark's own process side.
	Node  int   `json:"node"`
	Start int64 `json:"startNs"`
	End   int64 `json:"endNs"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans and counters in memory until the run ends. A nil
// *tracer records nothing, and the untraced run installs none of the
// hooks below, so the timed runs carry no tracing code at all.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	// active gates recording to the timed windows.
	active atomic.Bool

	mu       sync.Mutex
	spans    []span
	counters map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counters: make(map[string]float64)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	if !t.active.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// count adds v to a named counter while a traced window is recording;
// nil-safe.
func (t *tracer) count(name string, v float64) {
	if !t.on() {
		return
	}
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

func (t *tracer) counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// setActive starts or stops recording; nil-safe.
func (t *tracer) setActive(on bool) {
	if t != nil {
		t.active.Store(on)
	}
}

// on reports whether a traced window is recording; nil-safe.
func (t *tracer) on() bool { return t != nil && t.active.Load() }

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

type opKey struct{}

// opSpan is the root span of one workload op, carried in the op's
// context so the client transport can parent its HTTP spans.
type opSpan struct {
	id    uint64
	reqID string
	calls atomic.Int64
}

// startOp opens an op's root span; finish closes it.
func (t *tracer) startOp(ctx context.Context, name, reqID string) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	op := &opSpan{id: t.next.Add(1), reqID: reqID}
	start := t.now()
	return context.WithValue(ctx, opKey{}, op), func() {
		t.add(span{ID: op.id, Name: name, ReqID: reqID, Node: -1, Start: start, End: t.now()})
	}
}

// timed records fn as a child span of the op in ctx (or a root span).
func (t *tracer) timed(ctx context.Context, name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	var parent uint64
	if op, ok := ctx.Value(opKey{}).(*opSpan); ok {
		parent = op.id
	}
	start := t.now()
	err := fn()
	t.add(span{ID: t.next.Add(1), Parent: parent, Name: name, Node: -1, Start: start, End: t.now()})
	return err
}

// clientTransport wraps the benchmark clients' HTTP transport: every
// request gets an X-Request-Id, a span named after the vos call it
// serves, and a retry tally (a 5xx or transport error on an idempotent
// request is what vos.Remote retries). The span ends when the body is
// closed, so event streams are timed to their end.
type clientTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (c *clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := c.t.next.Add(1)
	var parent uint64
	reqID := fmt.Sprintf("x-%d", id)
	if op, ok := req.Context().Value(opKey{}).(*opSpan); ok {
		parent = op.id
		reqID = fmt.Sprintf("%s.%d", op.reqID, op.calls.Add(1))
	}
	r2 := req.Clone(req.Context())
	r2.Header.Set("X-Request-Id", reqID)
	name := "vos." + clientCall(req.Method, req.URL.Path)
	start := c.t.now()
	resp, err := c.base.RoundTrip(r2)
	idempotent := req.Method == http.MethodGet || req.Method == http.MethodDelete
	if err != nil || resp.StatusCode >= 500 {
		if idempotent {
			c.t.count("vos.retries", 1)
		}
	}
	finish := func() {
		c.t.add(span{ID: id, Parent: parent, Name: name, ReqID: reqID, Node: -1, Start: start, End: c.t.now()})
	}
	if err != nil {
		finish()
		return nil, err
	}
	resp.Body = &endBody{ReadCloser: resp.Body, end: finish}
	return resp, nil
}

// endBody calls end once, when the body is closed.
type endBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *endBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// clientCall names the vos.Remote call behind a request.
func clientCall(method, path string) string {
	kind := "sweep"
	rest := strings.TrimPrefix(path, "/v1/sweeps")
	if strings.HasPrefix(path, "/v1/mc") {
		kind = "mc"
		rest = strings.TrimPrefix(path, "/v1/mc")
	} else if !strings.HasPrefix(path, "/v1/sweeps") {
		return "other"
	}
	switch {
	case method == http.MethodPost && rest == "":
		return "submit_" + kind
	case strings.HasSuffix(rest, "/events"):
		return kind + "_events"
	case strings.HasSuffix(rest, "/results"):
		return kind + "_results"
	case method == http.MethodGet:
		return kind + "_status"
	}
	return "other"
}

// routeKey names the node route a request hits, with "/" as "_" and
// path parameters as their names.
func routeKey(method, path string) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case len(parts) >= 3 && parts[0] == "v1" && (parts[1] == "sweeps" || parts[1] == "mc"):
		parts[2] = "id"
	case len(parts) >= 4 && parts[0] == "v1" && parts[1] == "cache" && parts[2] == "entries":
		parts[3] = "key"
	}
	return method + "_" + strings.Join(parts, "_")
}

// nodeHooks installs the traced run's seams on cluster member i: a
// middleware timing every handler, an outbound transport timing every
// peer request (shard RPCs and cache fills), and a never-faulting fault
// injector counting the journal's writes.
func (t *tracer) nodeHooks(i int, opts *cluster.NodeOptions) {
	opts.Middleware = func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := t.now()
			next.ServeHTTP(w, r)
			t.add(span{ID: t.next.Add(1), Name: "httpapi." + routeKey(r.Method, r.URL.Path),
				ReqID: r.Header.Get("X-Request-Id"), Node: i, Start: start, End: t.now()})
		})
	}
	opts.Transport = &peerTransport{t: t, node: i, base: http.DefaultTransport}
	opts.CacheFaults = &journalCounter{t: t}
}

// peerTransport times one member's outbound peer traffic. The program
// does not carry a request id from the request that caused a shard RPC,
// so these spans have no parent; they do pass their own id on, which
// parents the peer's handler span.
type peerTransport struct {
	t    *tracer
	node int
	base http.RoundTripper
}

func (p *peerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := p.t.next.Add(1)
	reqID := fmt.Sprintf("n%d-%d", p.node, id)
	r2 := req.Clone(req.Context())
	r2.Header.Set("X-Request-Id", reqID)
	name := "cluster.shard_rpc"
	if strings.HasPrefix(req.URL.Path, "/v1/cache/entries/") {
		name = "cluster.peer_fill"
		if req.Method == http.MethodPut {
			name = "cluster.peer_push"
		}
	}
	start := p.t.now()
	resp, err := p.base.RoundTrip(r2)
	finish := func() {
		p.t.add(span{ID: id, Name: name, ReqID: reqID, Node: p.node, Start: start, End: p.t.now()})
	}
	if err != nil {
		finish()
		return nil, err
	}
	resp.Body = &endBody{ReadCloser: resp.Body, end: finish}
	return resp, nil
}

// journalCounter is a fault injector that never injects: the journal
// consults it before every record it writes, so it counts appends. The
// memory-only result caches never reach it.
type journalCounter struct{ t *tracer }

func (j *journalCounter) WriteFault(string) (int, bool) {
	j.t.count("journal.appends", 1)
	return 0, false
}

func (j *journalCounter) RenameFault(string) bool {
	j.t.count("journal.compactions", 1)
	return false
}

func (j *journalCounter) ReadFault(string) bool { return false }

// writeFile writes the spans and counters as one JSON document.
func (t *tracer) writeFile(path string, extra map[string]any) error {
	t.mu.Lock()
	doc := map[string]any{"spans": t.spans, "counters": t.counters}
	for k, v := range extra {
		doc[k] = v
	}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes sums, per span name, each span's duration minus the part of
// it covered by its children: client HTTP spans nest under op spans,
// handler spans under the client or peer span that carried their
// request id.
func selfTimes(spans []span) map[string]float64 {
	// Client and peer spans carry the request ids handler spans echo.
	byReq := make(map[string]uint64)
	for _, s := range spans {
		if s.ReqID != "" && (strings.HasPrefix(s.Name, "vos.") || strings.HasPrefix(s.Name, "cluster.")) {
			byReq[s.ReqID] = s.ID
		}
	}
	children := make(map[uint64][]span)
	for _, s := range spans {
		parent := s.Parent
		if strings.HasPrefix(s.Name, "httpapi.") {
			parent = byReq[s.ReqID]
		}
		if parent != 0 {
			children[parent] = append(children[parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		d := s.End - s.Start
		d -= covered(s, children[s.ID])
		out[s.Name] += float64(d) / 1e6
	}
	return out
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

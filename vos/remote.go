package vos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/engine/httpapi"
)

// RemoteOptions configures a vosd HTTP client.
type RemoteOptions struct {
	// HTTPClient overrides the transport; nil uses a dedicated client
	// with no global timeout (per-call contexts bound the requests, and
	// event streams are long-lived by design).
	HTTPClient *http.Client
	// Retries is how many times idempotent requests (GET, DELETE) are
	// retried after transport errors or 5xx responses; negative disables
	// retries. Default: 2. A submission (POST) is retried only when the
	// daemon refused it with 503 not_ready while replaying its journal —
	// it accepted no job then — and waits at least the daemon's
	// Retry-After; any other failed submission is returned at once, as a
	// replay could start a duplicate sweep.
	Retries int
	// RetryBackoff is the base delay between retries, doubling each
	// attempt up to RetryBackoffMax; the actual delay is jittered
	// uniformly over [d/2, d] so clients whose retries were synchronized
	// by a shared failure don't stampede the recovering server in
	// lockstep. Default: 100ms.
	RetryBackoff time.Duration
	// RetryBackoffMax caps the exponentially growing delay. Default: 5s.
	RetryBackoffMax time.Duration
	// JitterSeed seeds the retry jitter; 0 derives a seed from the
	// clock. Fix it to make retry schedules reproducible (the chaos
	// harness does).
	JitterSeed int64
	// PollInterval paces the Wait fallback polling loop used when the
	// event stream is unavailable. Default: 150ms.
	PollInterval time.Duration
	// Tenant names this client in the daemon's per-tenant in-flight
	// sweep quotas (the X-Vos-Tenant header). Empty means the daemon's
	// default tenant. Tenancy is cooperative accounting, not
	// authentication.
	Tenant string
	// Reconnect makes the client survive daemon restarts against a
	// journaled vosd (see the -journal-dir flag): a dropped event stream
	// is reopened with backoff — the daemon replays the job's history
	// from its journal, and already-delivered point events are
	// deduplicated so consumers see each point once — and Wait/WaitMC
	// and Run/RunMC keep retrying transient failures (connection refused
	// while the daemon restarts, 503 while it replays) instead of giving
	// up. A 404 stays authoritative and ends the wait: a journaled
	// daemon answers 503, not 404, while an id might still be in replay.
	// Off by default: without a journal a restarted daemon has genuinely
	// forgotten the job, and retrying would just mask that.
	Reconnect bool
}

// Remote is the HTTP Client for a vosd daemon (see API.md for the REST
// surface it speaks). Errors carry the daemon's structured error
// envelope as *APIError and match the package sentinels under errors.Is;
// all calls honor context cancellation.
type Remote struct {
	base       *url.URL
	httpc      *http.Client
	retries    int
	backoff    time.Duration
	backoffMax time.Duration
	poll       time.Duration
	tenant     string
	reconnect  bool
	sweeps     remoteJobs[Result, Event]
	mcs        remoteJobs[MCResult, MCEvent]

	// jitterMu guards rng: retries from concurrent calls draw from one
	// seeded stream.
	jitterMu sync.Mutex
	rng      *rand.Rand
}

var _ Client = (*Remote)(nil)

// NewRemote returns a client for the daemon at baseURL (e.g.
// "http://localhost:8420").
func NewRemote(baseURL string, opts RemoteOptions) (*Remote, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("vos: bad server URL %q: %w", baseURL, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("vos: server URL %q needs a scheme and host", baseURL)
	}
	r := &Remote{
		base:       u,
		httpc:      opts.HTTPClient,
		retries:    opts.Retries,
		backoff:    opts.RetryBackoff,
		backoffMax: opts.RetryBackoffMax,
		poll:       opts.PollInterval,
		tenant:     opts.Tenant,
		reconnect:  opts.Reconnect,
	}
	r.sweeps = remoteJobs[Result, Event]{c: r, base: "/v1/sweeps"}
	r.mcs = remoteJobs[MCResult, MCEvent]{c: r, base: "/v1/mc"}
	if r.httpc == nil {
		r.httpc = &http.Client{}
	}
	if opts.Retries == 0 {
		r.retries = 2
	} else if opts.Retries < 0 {
		r.retries = 0
	}
	if r.backoff <= 0 {
		r.backoff = 100 * time.Millisecond
	}
	if r.backoffMax <= 0 {
		r.backoffMax = 5 * time.Second
	}
	seed := opts.JitterSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	r.rng = rand.New(rand.NewSource(seed))
	if r.poll <= 0 {
		r.poll = 150 * time.Millisecond
	}
	return r, nil
}

// retryDelay computes the pause before retry attempt (1-based): the
// base backoff doubled per attempt, capped at backoffMax, then jittered
// uniformly over [d/2, d]. The cap bounds the worst-case stall behind a
// long retry budget (the old unbounded shift reached minutes within a
// dozen attempts — and overflowed beyond that); the jitter decorrelates
// clients whose retries a shared failure synchronized, so a recovering
// server sees a spread of retries instead of a stampede.
func (c *Remote) retryDelay(attempt int) time.Duration {
	d := c.backoff
	// Cap the shift: past 20 doublings any sane base has long since hit
	// backoffMax, and an unchecked shift would overflow the duration.
	if attempt > 1 {
		shift := attempt - 1
		if shift > 20 {
			shift = 20
		}
		d <<= shift
	}
	if d > c.backoffMax || d <= 0 {
		d = c.backoffMax
	}
	c.jitterMu.Lock()
	jittered := d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	c.jitterMu.Unlock()
	return jittered
}

// Close releases idle connections.
func (c *Remote) Close() error {
	c.httpc.CloseIdleConnections()
	return nil
}

// Run implements Client. It makes three calls — submit, the event
// stream to its terminal event, the results — and polls the status only
// when the stream ends early. It reads only each event's type: the
// points come from the results. Each response is read to its end, so
// the transport keeps the connection for the next call.
func (c *Remote) Run(ctx context.Context, spec *Spec) (*Result, error) {
	id, err := c.Submit(ctx, spec)
	return c.sweeps.run(ctx, id, err)
}

// Submit implements Client.
func (c *Remote) Submit(ctx context.Context, spec *Spec) (string, error) {
	return c.sweeps.submit(ctx, spec.Validate(), spec.request())
}

// Status implements Client.
func (c *Remote) Status(ctx context.Context, id string) (*Result, error) {
	return c.sweeps.status(ctx, id)
}

// Wait implements Client. It follows the event stream when available,
// reading only each event's type, and then reads the final state from
// the status endpoint, which it keeps polling if the stream drops. In
// Reconnect mode the polling loop also retries transient Status
// failures — everything but a 404, which a journaled daemon only sends
// once replay has finished and the id is authoritatively unknown.
func (c *Remote) Wait(ctx context.Context, id string) (*Result, error) {
	return c.sweeps.wait(ctx, id)
}

// Results implements Client.
func (c *Remote) Results(ctx context.Context, id string) (*Result, error) {
	return c.sweeps.results(ctx, id)
}

// openStream opens one NDJSON event stream, returning the live response
// or a decoded envelope error.
func (c *Remote) openStream(ctx context.Context, path string) (reply, error) {
	resp, err := c.send(ctx, http.MethodGet, path, nil)
	if err != nil {
		return reply{}, fmt.Errorf("vos: events stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.close()
		return reply{}, decodeError(resp.Response)
	}
	return resp, nil
}

// reopenStream retries openStream with the client's backoff until it
// succeeds, the id is authoritatively unknown (404 — give up), or the
// context dies. Only used in Reconnect mode.
func (c *Remote) reopenStream(ctx context.Context, path string) (reply, bool) {
	for attempt := 1; ; attempt++ {
		select {
		case <-time.After(c.retryDelay(attempt)):
		case <-ctx.Done():
			return reply{}, false
		}
		resp, err := c.openStream(ctx, path)
		if err == nil {
			return resp, true
		}
		if errors.Is(err, ErrNotFound) || ctx.Err() != nil {
			return reply{}, false
		}
	}
}

// Events implements Client. The stream is read line-by-line from the
// daemon's NDJSON endpoint; canceling the context closes it. In
// Reconnect mode a dropped stream is reopened against the daemon's
// journal-replayed history: point events already delivered are skipped
// (keyed by operator and triad) and bare progress events are not
// repeated, so consumers see each point exactly once and still get the
// terminal event.
func (c *Remote) Events(ctx context.Context, id string) (<-chan Event, error) {
	return c.sweeps.events(ctx, id)
}

// Cancel implements Client.
func (c *Remote) Cancel(ctx context.Context, id string) error { return c.sweeps.cancel(ctx, id) }

// CacheStats implements Client.
func (c *Remote) CacheStats(ctx context.Context) (*CacheStats, error) {
	var stats CacheStats
	if err := c.call(ctx, http.MethodGet, "/v1/cache/stats", nil, http.StatusOK, &stats); err != nil {
		return nil, err
	}
	return &stats, nil
}

// call performs one API request, retrying idempotent methods on
// transport errors and 5xx responses and other methods on 503 not_ready
// only, and decoding the error envelope on any other status than
// wantStatus.
func (c *Remote) call(ctx context.Context, method, path string, body []byte, wantStatus int, out any) error {
	idempotent := method == http.MethodGet || method == http.MethodDelete
	var lastErr error
	var retryAfter time.Duration
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(max(c.retryDelay(attempt), retryAfter)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		resp, err := c.send(ctx, method, path, body)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = fmt.Errorf("vos: %s %s: %w", method, path, err)
			if !idempotent {
				return lastErr
			}
			continue
		}
		if resp.StatusCode >= 500 {
			lastErr = decodeError(resp.Response)
			resp.close()
			if !idempotent {
				// The daemon checks readiness before it accepts a job, so
				// only a not_ready refusal is safe to send again.
				var apiErr *APIError
				if !errors.As(lastErr, &apiErr) || apiErr.Code != httpapi.CodeNotReady {
					return lastErr
				}
				secs, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
				retryAfter = time.Duration(secs) * time.Second
			}
			continue
		}
		defer resp.close()
		if resp.StatusCode != wantStatus {
			return decodeError(resp.Response)
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				return fmt.Errorf("vos: %s %s: decode response: %w", method, path, err)
			}
		}
		return nil
	}
	return lastErr
}

// send issues one request under a context of its own, which the reply's
// close or abort ends.
func (c *Remote) send(ctx context.Context, method, path string, body []byte) (reply, error) {
	rctx, cancel := context.WithCancel(ctx)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(rctx, method, c.base.JoinPath(path).String(), rd)
	if err != nil {
		cancel()
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.tenant != "" {
		req.Header.Set("X-Vos-Tenant", c.tenant)
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		cancel()
		return reply{}, err
	}
	return reply{resp, cancel}, nil
}

// Bounds on what reply.close reads past the part of a body its reader
// used: a well-formed reply has only a newline and the chunked
// encoding's terminator left.
const (
	maxDrain  = 4 << 10
	drainWait = time.Second
)

// reply is one response with the cancel of the context it was requested
// under.
type reply struct {
	*http.Response
	cancel context.CancelFunc
}

// close drains what is left of the body and closes it: net/http returns
// a keep-alive connection to its pool only once the body reached EOF. The
// drain stops after maxDrain bytes, and after drainWait the request is
// canceled, so a server that keeps sending or holds the response open
// costs the connection, never a stall.
func (r reply) close() {
	t := time.AfterFunc(drainWait, r.cancel)
	io.CopyN(io.Discard, r.Body, maxDrain)
	t.Stop()
	r.Body.Close()
	r.cancel()
}

// abort closes the body without reading on and ends the request.
func (r reply) abort() {
	r.Body.Close()
	r.cancel()
}

// decodeError turns a non-2xx response into a typed error: *SweepError
// for terminal sweep states, *APIError otherwise.
func decodeError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var env httpapi.ErrorEnvelope
	if err := json.Unmarshal(data, &env); err != nil || env.Error.Code == "" {
		return &APIError{
			StatusCode: resp.StatusCode,
			Code:       "unexpected_response",
			Message:    strings.TrimSpace(string(data)),
		}
	}
	switch env.Error.Code {
	case httpapi.CodeSweepFailed, httpapi.CodeSweepCanceled:
		status := StatusFailed
		if env.Error.Code == httpapi.CodeSweepCanceled {
			status = StatusCanceled
		}
		return &SweepError{Status: status, Message: env.Error.Message}
	}
	return &APIError{
		StatusCode: resp.StatusCode,
		Code:       env.Error.Code,
		Message:    env.Error.Message,
	}
}

package vos_test

// Fault-path tests for the Remote client: a daemon that flakes, a
// severed event stream, and caller-side cancellation. A cluster
// coordinator leans on exactly these paths when it re-routes shards, so
// they get their own transport-level coverage here against a scripted
// HTTP server rather than a real engine.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/vos"
)

const faultEnvelope = `{"error":{"code":"internal","message":"transient"}}`

// newFaultClient wraps an httptest handler in a Remote with fast
// retry/poll pacing so fault tests stay sub-second.
func newFaultClient(t *testing.T, h http.Handler) *vos.Remote {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	client, err := vos.NewRemote(ts.URL, vos.RemoteOptions{
		RetryBackoff: 5 * time.Millisecond,
		PollInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// TestRemoteRetriesTransient5xx checks GETs survive a 5xx blip: the
// first status fetch fails server-side, the retry succeeds, and the
// caller sees only the good response.
func TestRemoteRetriesTransient5xx(t *testing.T) {
	var calls atomic.Int64
	client := newFaultClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprint(w, faultEnvelope)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"s-1","status":"done","progress":{"totalPoints":1,"completed":1}}`)
	}))

	res, err := client.Status(context.Background(), "s-1")
	if err != nil {
		t.Fatalf("Status after one 5xx: %v", err)
	}
	if res.Status != vos.StatusDone {
		t.Fatalf("status = %q", res.Status)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("%d requests; want a single retry (2)", n)
	}
}

// TestRemoteSubmitNotRetried checks a POST that failed with anything but
// 503 not_ready is not replayed: a retried submission could start a
// duplicate sweep.
func TestRemoteSubmitNotRetried(t *testing.T) {
	var calls atomic.Int64
	client := newFaultClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprint(w, faultEnvelope)
	}))

	_, err := client.Submit(context.Background(), vos.NewSpec().Widths(4))
	if err == nil {
		t.Fatal("Submit against a 500-only daemon succeeded")
	}
	var apiErr *vos.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusInternalServerError {
		t.Fatalf("err = %v; want the daemon's *APIError", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d POSTs; submissions must not be retried", n)
	}
}

// TestRemoteWaitSurvivesStreamDrop severs the NDJSON event stream after
// one point event — mid-sweep, no terminal event — and checks Wait
// falls back to status polling and still returns the finished result.
func TestRemoteWaitSurvivesStreamDrop(t *testing.T) {
	var statusCalls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/sweeps/s-1/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"type":"point","sweepId":"s-1","arch":"RCA","width":4}`)
		w.(http.Flusher).Flush()
		// Die the way a crashed daemon does: the TCP stream resets with
		// the sweep still unfinished.
		panic(http.ErrAbortHandler)
	})
	mux.HandleFunc("GET /v1/sweeps/s-1", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		status := vos.StatusRunning
		if statusCalls.Add(1) >= 3 {
			status = vos.StatusDone
		}
		fmt.Fprintf(w, `{"id":"s-1","status":%q,"progress":{"totalPoints":1,"completed":1}}`, status)
	})
	client := newFaultClient(t, mux)

	res, err := client.Wait(context.Background(), "s-1")
	if err != nil {
		t.Fatalf("Wait after stream drop: %v", err)
	}
	if res.Status != vos.StatusDone {
		t.Fatalf("status = %q", res.Status)
	}
	if n := statusCalls.Load(); n < 3 {
		t.Fatalf("%d status polls; Wait did not fall back to polling", n)
	}
}

// TestRemoteWaitCancellation checks a canceled context unblocks Wait
// against a daemon whose sweep never finishes and whose event stream
// never closes.
func TestRemoteWaitCancellation(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/sweeps/s-1/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.(http.Flusher).Flush()
		<-r.Context().Done() // hold the stream open, emit nothing
	})
	mux.HandleFunc("GET /v1/sweeps/s-1", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"s-1","status":"running","progress":{"totalPoints":1}}`)
	})
	client := newFaultClient(t, mux)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := client.Wait(ctx, "s-1")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let Wait attach to the stream
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait returned %v; want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not unblock after cancellation")
	}
}

// TestRemoteRunSurvivesStreamDrop: a Run whose event stream is severed
// before the terminal event falls back to polling the status, then
// fetches the results.
func TestRemoteRunSurvivesStreamDrop(t *testing.T) {
	var statusCalls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"s-1"}`)
	})
	mux.HandleFunc("GET /v1/sweeps/s-1/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"type":"point","sweepId":"s-1","arch":"RCA","width":4}`)
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	})
	mux.HandleFunc("GET /v1/sweeps/s-1", func(w http.ResponseWriter, r *http.Request) {
		status := vos.StatusRunning
		if statusCalls.Add(1) >= 2 {
			status = vos.StatusDone
		}
		fmt.Fprintf(w, `{"id":"s-1","status":%q,"progress":{"totalPoints":1,"completed":1}}`, status)
	})
	mux.HandleFunc("GET /v1/sweeps/s-1/results", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"id":"s-1","status":"done","progress":{"totalPoints":1,"completed":1},"results":[{"arch":"RCA","width":4}]}`)
	})
	client := newFaultClient(t, mux)

	res, err := client.Run(context.Background(), vos.NewSpec().Widths(4))
	if err != nil {
		t.Fatalf("Run after stream drop: %v", err)
	}
	if res.Status != vos.StatusDone || len(res.Operators) != 1 {
		t.Fatalf("result %+v", res)
	}
	if n := statusCalls.Load(); n < 2 {
		t.Fatalf("%d status polls; Run did not fall back to polling", n)
	}
}

// TestRemoteRunReconnectRetriesResults: in Reconnect mode a results
// fetch that fails after the terminal event — the daemon restarting —
// is retried once the status answers again, instead of failing the Run.
func TestRemoteRunReconnectRetriesResults(t *testing.T) {
	var down atomic.Int64
	unavailable := func(w http.ResponseWriter) bool {
		if down.Add(-1) < 0 {
			return false
		}
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":{"code":"not_ready","message":"replaying"}}`)
		return true
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"s-1"}`)
	})
	mux.HandleFunc("GET /v1/sweeps/s-1/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"type":"done","sweepId":"s-1","status":"done"}`)
	})
	mux.HandleFunc("GET /v1/sweeps/s-1", func(w http.ResponseWriter, r *http.Request) {
		if !unavailable(w) {
			fmt.Fprint(w, `{"id":"s-1","status":"done","progress":{"totalPoints":1,"completed":1}}`)
		}
	})
	mux.HandleFunc("GET /v1/sweeps/s-1/results", func(w http.ResponseWriter, r *http.Request) {
		if !unavailable(w) {
			fmt.Fprint(w, `{"id":"s-1","status":"done","progress":{"totalPoints":1,"completed":1},"results":[{"arch":"RCA","width":4}]}`)
		}
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	for _, reconnect := range []bool{false, true} {
		down.Store(4) // more failed results attempts than one call retries
		client, err := vos.NewRemote(ts.URL, vos.RemoteOptions{Reconnect: reconnect,
			RetryBackoff: time.Millisecond, PollInterval: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		res, err := client.Run(context.Background(), vos.NewSpec().Widths(4))
		client.Close()
		if !reconnect {
			if err == nil {
				t.Fatal("Run without Reconnect rode out a results outage past its retries")
			}
			continue
		}
		if err != nil || res.Status != vos.StatusDone || len(res.Operators) != 1 {
			t.Fatalf("Reconnect Run across a results outage: %v %+v", err, res)
		}
	}
}

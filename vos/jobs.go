package vos

// The job bodies Local and Remote share between sweeps and Monte Carlo
// jobs: each client method calls one of these over its kind's types.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"iter"
	"net/http"
	"net/url"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/httpapi"
)

// runJob is the synchronous path Local's Run methods take: submit (the
// id and error passed in), wait, fetch the results.
func runJob[S any](ctx context.Context, id string, err error,
	wait, results func(context.Context, string) (*S, error)) (*S, error) {
	if err != nil {
		return nil, err
	}
	if _, err := wait(ctx, id); err != nil {
		return nil, err
	}
	return results(ctx, id)
}

// localJobs is one job kind's engine surface, as Local's job bodies use
// it: ES and EE are the engine's snapshot and event types, S and E the
// SDK's.
type localJobs[ES, EE, S, E any] struct {
	// noun names one job in errors ("sweep", "mc job").
	noun      string
	get       func(string) (ES, bool)
	wait      func(context.Context, string) (ES, error)
	subscribe func(context.Context, string) (iter.Seq2[EE, bool], bool)
	cancel    func(string) error
	// info reads a snapshot's lifecycle fields; strip drops its results.
	info  func(ES) engine.JobInfo
	strip func(ES) ES
	// result and event convert a snapshot and an event to the SDK types
	// (see sweepResult).
	result func(ES) *S
	event  func(EE) E
}

func (k localJobs[ES, EE, S, E]) status(id string) (*S, error) {
	snap, ok := k.get(id)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrNotFound, id)
	}
	return k.result(k.strip(snap)), nil
}

func (k localJobs[ES, EE, S, E]) waitFor(ctx context.Context, id string) (*S, error) {
	snap, err := k.wait(ctx, id)
	if err != nil {
		if k.info(snap).ID == "" {
			return nil, fmt.Errorf("%w %q", ErrNotFound, id)
		}
		return nil, err
	}
	return k.result(k.strip(snap)), nil
}

func (k localJobs[ES, EE, S, E]) results(id string) (*S, error) {
	snap, ok := k.get(id)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrNotFound, id)
	}
	switch job := k.info(snap); job.Status {
	case engine.StatusDone:
		return k.result(snap), nil
	case engine.StatusFailed, engine.StatusCanceled:
		return nil, &SweepError{ID: job.ID, Status: string(job.Status), Message: job.Error}
	default:
		return nil, fmt.Errorf("%w: %s %s is %s (%d/%d points)",
			ErrNotDone, k.noun, job.ID, job.Status, job.Progress.Completed, job.Progress.TotalPoints)
	}
}

func (k localJobs[ES, EE, S, E]) events(ctx context.Context, id string) (<-chan E, error) {
	events, ok := k.subscribe(ctx, id)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrNotFound, id)
	}
	out := make(chan E, 16)
	go func() {
		defer close(out)
		for ev := range events {
			select {
			case out <- k.event(ev):
			case <-ctx.Done():
				return
			}
		}
	}()
	return out, nil
}

func (k localJobs[ES, EE, S, E]) cancelJob(id string) error {
	switch err := k.cancel(id); {
	case err == nil:
		return nil
	case errors.Is(err, engine.ErrAlreadyDone):
		return fmt.Errorf("%w: %s %q", ErrAlreadyDone, k.noun, id)
	default:
		return fmt.Errorf("%w %q", ErrNotFound, id)
	}
}

// jobResult is what Remote's job bodies need of a snapshot type
// (Result, MCResult).
type jobResult interface{ jobStatus() string }

// jobEvent is what they need of an event type (Event, MCEvent).
type jobEvent interface {
	Terminal() bool
	// pointKey identifies the point of a point event; "" for any other
	// event.
	pointKey() string
}

// remoteJobs is one job kind's REST surface under base ("/v1/sweeps",
// "/v1/mc"), as Remote's job bodies use it.
type remoteJobs[S jobResult, E jobEvent] struct {
	c    *Remote
	base string
}

// submit validates the spec locally — a malformed one should not need a
// network round trip to be diagnosed — and posts its request.
func (k remoteJobs[S, E]) submit(ctx context.Context, invalid error, req any) (string, error) {
	if invalid != nil {
		return "", invalid
	}
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	var resp httpapi.SubmitResponse
	if err := k.c.call(ctx, http.MethodPost, k.base, body, http.StatusAccepted, &resp); err != nil {
		return "", err
	}
	return resp.ID, nil
}

func (k remoteJobs[S, E]) status(ctx context.Context, id string) (*S, error) {
	var r S
	if err := k.c.call(ctx, http.MethodGet, k.base+"/"+url.PathEscape(id), nil, http.StatusOK, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// run implements Remote.Run and Remote.RunMC: submit (the id and error
// passed in), follow the event stream to its terminal event, fetch the
// results — three calls, since the terminal event already says the job
// is over. A stream that ends without its terminal event falls back to
// polling the status. In Reconnect mode a results fetch that fails for
// any reason but a final answer (an unknown id, a failed or canceled
// job) polls until the daemon is back and the job is over, then fetches
// again: the daemon may have restarted after the stream ended.
func (k remoteJobs[S, E]) run(ctx context.Context, id string, err error) (*S, error) {
	if err != nil {
		return nil, err
	}
	ended, err := k.follow(ctx, id)
	if err != nil {
		return nil, err
	}
	for {
		if !ended {
			if _, err := k.poll(ctx, id); err != nil {
				return nil, err
			}
		}
		r, err := k.results(ctx, id)
		var swErr *SweepError
		if err == nil || !k.c.reconnect || ctx.Err() != nil || errors.Is(err, ErrNotFound) || errors.As(err, &swErr) {
			return r, err
		}
		ended = false
	}
}

// wait implements Remote.Wait and Remote.WaitMC: follow the event stream
// while it flows, then poll the status, which resolves the final state
// whether the stream delivered its terminal event or dropped.
func (k remoteJobs[S, E]) wait(ctx context.Context, id string) (*S, error) {
	if _, err := k.follow(ctx, id); err != nil {
		return nil, err
	}
	return k.poll(ctx, id)
}

// follow reads the job's event stream until it ends, reporting whether
// it delivered the terminal event. It fails only on an unknown id: any
// other stream that cannot open leaves the caller to poll.
func (k remoteJobs[S, E]) follow(ctx context.Context, id string) (bool, error) {
	ch, err := k.events(ctx, id)
	if errors.Is(err, ErrNotFound) {
		return false, err
	} else if err != nil {
		return false, nil
	}
	for ev := range ch {
		if ev.Terminal() {
			return true, nil // the terminal event is the stream's last
		}
	}
	return false, nil
}

// poll polls the job's status until it is final. In Reconnect mode it
// also retries transient failures — everything but a 404.
func (k remoteJobs[S, E]) poll(ctx context.Context, id string) (*S, error) {
	ticker := time.NewTicker(k.c.poll)
	defer ticker.Stop()
	for {
		r, err := k.status(ctx, id)
		switch {
		case err == nil:
			switch (*r).jobStatus() {
			case StatusDone, StatusFailed, StatusCanceled:
				return r, nil
			}
		case !k.c.reconnect, errors.Is(err, ErrNotFound):
			return nil, err
		}
		select {
		case <-ticker.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func (k remoteJobs[S, E]) results(ctx context.Context, id string) (*S, error) {
	var r S
	if err := k.c.call(ctx, http.MethodGet, k.base+"/"+url.PathEscape(id)+"/results", nil, http.StatusOK, &r); err != nil {
		// The error envelope does not echo the job id; stamp it so
		// *SweepError carries the same fields on both transports.
		var swErr *SweepError
		if errors.As(err, &swErr) && swErr.ID == "" {
			swErr.ID = id
		}
		return nil, err
	}
	return &r, nil
}

// events implements Remote.Events and Remote.MCEvents: a reconnected
// stream is forwarded past what was already delivered (forwardEvents).
func (k remoteJobs[S, E]) events(ctx context.Context, id string) (<-chan E, error) {
	path := k.base + "/" + url.PathEscape(id) + "/events"
	resp, err := k.c.openStream(ctx, path)
	if err != nil {
		return nil, err
	}
	out := make(chan E, 16)
	go func() {
		defer close(out)
		delivered := make(map[string]int)
		for replay := false; ; replay = true {
			if forwardEvents(ctx, resp, out, delivered, replay) || !k.c.reconnect {
				return
			}
			if resp = k.c.reopenStream(ctx, path); resp == nil {
				return
			}
		}
	}()
	return out, nil
}

// forwardEvents drains one stream connection into out, reporting whether
// the stream completed (terminal event delivered, consumer gone, or a
// malformed event mid-stream) rather than dropped. A reopened connection
// (replay) starts over with the job's whole history: of its point
// events, the first delivered[key] with each point key were delivered
// before and are skipped — so a job that lists one point twice still
// streams it twice — and its bare progress events are dropped.
func forwardEvents[E jobEvent](ctx context.Context, resp *http.Response, out chan<- E,
	delivered map[string]int, replay bool) bool {
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 16<<20)
	seen := make(map[string]int)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev E
		if err := json.Unmarshal(line, &ev); err != nil {
			// A line cut short by a dropped connection is the last thing
			// the connection delivered: a drop, reopened like any other.
			// A malformed line with more after it ends the stream, so a
			// bad peer cannot keep the client reconnecting.
			return sc.Scan()
		}
		if key := ev.pointKey(); key != "" {
			if seen[key]++; seen[key] <= delivered[key] {
				continue
			}
			delivered[key]++
		} else if replay && !ev.Terminal() {
			continue
		}
		select {
		case out <- ev:
		case <-ctx.Done():
			return true
		}
		if ev.Terminal() {
			return true
		}
	}
	return false
}

func (k remoteJobs[S, E]) cancel(ctx context.Context, id string) error {
	return k.c.call(ctx, http.MethodDelete, k.base+"/"+url.PathEscape(id), nil, http.StatusNoContent, nil)
}

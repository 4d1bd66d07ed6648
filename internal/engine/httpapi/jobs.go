package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"iter"
	"net/http"

	"repro/internal/engine"
)

// jobRoutes is one job kind's engine surface, as the shared job handlers
// use it: R is its request, S its snapshot and E its event type.
type jobRoutes[R, S, E any] struct {
	// noun names one job in messages ("sweep", "mc job").
	noun      string
	submit    func(R) (string, error)
	get       func(id string) (S, bool)
	subscribe func(ctx context.Context, id string) (iter.Seq2[E, bool], bool)
	cancel    func(id string) error
	// info reads a snapshot's lifecycle fields; statusOnly strips its
	// (potentially large) results for the status endpoint.
	info       func(S) engine.JobInfo
	statusOnly func(S) S
}

// mountJobs mounts one job kind's routes under base — submit, status,
// results, events and cancel — and adds the kind to the tenant quota's
// job lookup, so every kind draws from one in-flight budget.
func mountJobs[R, S, E any](s *server, m *http.ServeMux, base string, k jobRoutes[R, S, E]) {
	s.lookups = append(s.lookups, func(id string) (engine.JobInfo, bool) {
		snap, ok := k.get(id)
		return k.info(snap), ok
	})
	m.HandleFunc("POST "+base, func(w http.ResponseWriter, r *http.Request) {
		var req R
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, "decode request: %v", err)
			return
		}
		s.submit(w, r, func() (string, error) { return k.submit(req) })
	})
	m.HandleFunc("GET "+base+"/{id}", func(w http.ResponseWriter, r *http.Request) {
		snap, ok := k.get(r.PathValue("id"))
		if !ok {
			s.unknownID(w, k.noun, r.PathValue("id"))
			return
		}
		writeJSON(w, http.StatusOK, k.statusOnly(snap))
	})
	m.HandleFunc("GET "+base+"/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		snap, ok := k.get(r.PathValue("id"))
		if !ok {
			s.unknownID(w, k.noun, r.PathValue("id"))
			return
		}
		switch job := k.info(snap); job.Status {
		case engine.StatusDone:
			writeJSON(w, http.StatusOK, snap)
		case engine.StatusFailed:
			writeError(w, http.StatusGone, CodeSweepFailed, "%s %s failed: %s", k.noun, job.ID, job.Error)
		case engine.StatusCanceled:
			writeError(w, http.StatusGone, CodeSweepCanceled, "%s %s canceled: %s", k.noun, job.ID, job.Error)
		default:
			writeError(w, http.StatusConflict, CodeSweepRunning,
				"%s %s is %s (%d/%d points); poll again or stream /events",
				k.noun, job.ID, job.Status, job.Progress.Completed, job.Progress.TotalPoints)
		}
	})
	// The events stream is NDJSON (one JSON object per line,
	// application/x-ndjson) until the terminal event. It is flushed
	// whenever it has caught up with the job, just before it waits for
	// the next event, so clients see points as they complete while a
	// finished job's stream leaves in one write. It always begins with
	// the job's replayed history (or a snapshot event), so subscribing to
	// a finished job yields its full history, terminal event last.
	m.HandleFunc("GET "+base+"/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		events, ok := k.subscribe(r.Context(), r.PathValue("id"))
		if !ok {
			s.unknownID(w, k.noun, r.PathValue("id"))
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("Cache-Control", "no-store")
		w.WriteHeader(http.StatusOK)
		fl, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		for ev, caughtUp := range events {
			if err := enc.Encode(ev); err != nil {
				return // client went away
			}
			if caughtUp && fl != nil {
				fl.Flush()
			}
		}
	})
	m.HandleFunc("DELETE "+base+"/{id}", func(w http.ResponseWriter, r *http.Request) {
		switch err := k.cancel(r.PathValue("id")); {
		case err == nil:
			w.WriteHeader(http.StatusNoContent)
		case errors.Is(err, engine.ErrAlreadyDone):
			writeError(w, http.StatusConflict, CodeAlreadyDone, "%v", err)
		default:
			s.unknownID(w, k.noun, r.PathValue("id"))
		}
	})
}

// submit runs one submission through the tenant quota, when one is
// configured and the tenant is not exempt, and answers 202 with the new
// job's ID.
func (s *server) submit(w http.ResponseWriter, r *http.Request, submit func() (string, error)) {
	var id string
	var err error
	if tenant := Tenant(r); s.quota != nil && !s.quota.exempt[tenant] {
		var admitted bool
		id, err, admitted = s.quota.admit(tenant, s.lookup, submit)
		if !admitted {
			writeError(w, http.StatusTooManyRequests, CodeQuotaExceeded,
				"tenant %q already has %d in-flight jobs", tenant, s.quota.max)
			return
		}
	} else {
		id, err = submit()
	}
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: id})
}

// lookup resolves a job ID of any mounted kind.
func (s *server) lookup(id string) (engine.JobInfo, bool) {
	for _, lookup := range s.lookups {
		if job, ok := lookup(id); ok {
			return job, true
		}
	}
	return engine.JobInfo{}, false
}

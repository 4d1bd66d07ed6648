package vos

import (
	"context"
	"errors"
	"fmt"
)

// Client runs characterization sweeps. Local executes them in-process;
// Remote forwards them to a vosd daemon over HTTP. The two are
// interchangeable: the same Spec yields the same Result values either
// way, so programs can be pointed at a shared daemon with a one-line
// change.
type Client interface {
	// Run is the synchronous path: submit the spec, wait for completion
	// and return the full results. Most programs only need Run.
	Run(ctx context.Context, spec *Spec) (*Result, error)

	// Submit starts a sweep asynchronously and returns its id.
	Submit(ctx context.Context, spec *Spec) (string, error)
	// Status returns a sweep's lifecycle snapshot without results.
	Status(ctx context.Context, id string) (*Result, error)
	// Wait blocks until the sweep reaches a terminal status and returns
	// the terminal snapshot (without results; fetch them with Results).
	Wait(ctx context.Context, id string) (*Result, error)
	// Results returns a finished sweep's full results. While the sweep is
	// still running it fails with ErrNotDone; for failed or canceled
	// sweeps it fails with a *SweepError.
	Results(ctx context.Context, id string) (*Result, error)
	// Events streams the sweep's incremental progress: point events as
	// each operating point completes, then exactly one terminal event,
	// after which the channel closes. The engine replays the sweep's
	// event history to new subscribers, so the stream is complete from
	// the sweep's start no matter when it is opened or how slowly it is
	// read. Canceling the context detaches the stream.
	Events(ctx context.Context, id string) (<-chan Event, error)
	// Cancel stops a pending or running sweep.
	Cancel(ctx context.Context, id string) error

	// RunMC is the synchronous Monte Carlo path: submit the spec, wait
	// for completion and return the full per-point results. The
	// asynchronous methods below mirror the sweep lifecycle for Monte
	// Carlo jobs (see MCSpec/MCResult/MCEvent).
	RunMC(ctx context.Context, spec *MCSpec) (*MCResult, error)
	SubmitMC(ctx context.Context, spec *MCSpec) (string, error)
	MCStatus(ctx context.Context, id string) (*MCResult, error)
	WaitMC(ctx context.Context, id string) (*MCResult, error)
	MCResults(ctx context.Context, id string) (*MCResult, error)
	MCEvents(ctx context.Context, id string) (<-chan MCEvent, error)
	CancelMC(ctx context.Context, id string) error

	// CacheStats reports the executing engine's result-cache counters.
	CacheStats(ctx context.Context) (*CacheStats, error)

	// Close releases the client's resources: the in-process engine for
	// Local, idle connections for Remote.
	Close() error
}

// Event types carried by Event.Type. A stream is progress/point events
// followed by exactly one terminal event.
const (
	EventProgress = "progress"
	EventPoint    = "point"
	EventDone     = "done"
	EventFailed   = "failed"
	EventCanceled = "canceled"
)

// Event is one entry of a sweep's event stream.
type Event struct {
	Type    string `json:"type"`
	SweepID string `json:"sweepId"`
	Status  string `json:"status"`
	// Progress is the sweep's counter set as of this event.
	Progress Progress `json:"progress"`
	// Bench, Arch and Width identify the operator of a point event;
	// Point is the completed point's summary.
	Bench string `json:"bench,omitempty"`
	Arch  string `json:"arch,omitempty"`
	Width int    `json:"width,omitempty"`
	Point *Point `json:"point,omitempty"`
	// Error carries the failure reason of failed/canceled events.
	Error string `json:"error,omitempty"`
}

// Terminal reports whether this event ends its stream.
func (e Event) Terminal() bool { return terminal(e.Type) }

func (e Event) pointKey() string {
	if e.Type != EventPoint || e.Point == nil {
		return ""
	}
	return fmt.Sprintf("%s|%s|%d|%v", e.Bench, e.Arch, e.Width, e.Point.Triad)
}

// CacheStats reports the engine's content-addressed result cache
// activity, plus the engine's lifetime simulation count.
type CacheStats struct {
	MemHits     uint64 `json:"memHits"`
	DiskHits    uint64 `json:"diskHits"`
	Misses      uint64 `json:"misses"`
	Stores      uint64 `json:"stores"`
	WriteErrors uint64 `json:"writeErrors"`
	// CorruptEntries counts on-disk entries found truncated or invalid,
	// deleted and served as misses.
	CorruptEntries uint64 `json:"corruptEntries,omitempty"`
	MemEntries     int    `json:"memEntries"`
	// Peer-tier counters, non-zero only on a clustered daemon: misses
	// filled from peer vosd nodes (PeerHits), fan-outs that found
	// nothing anywhere (PeerMisses), failed peer fetches (PeerErrors),
	// entries replicated to their ring owner (PeerPushes) and pushes
	// dropped on a full replication queue (PeerPushDrops).
	PeerHits      uint64 `json:"peerHits,omitempty"`
	PeerMisses    uint64 `json:"peerMisses,omitempty"`
	PeerErrors    uint64 `json:"peerErrors,omitempty"`
	PeerPushes    uint64 `json:"peerPushes,omitempty"`
	PeerPushDrops uint64 `json:"peerPushDrops,omitempty"`
	// PeerPushQueueDepth/Cap expose the replication queue's current
	// depth and capacity — the backpressure signal behind PeerPushDrops.
	PeerPushQueueDepth int `json:"peerPushQueueDepth,omitempty"`
	PeerPushQueueCap   int `json:"peerPushQueueCap,omitempty"`
	// DiskDegraded reports a daemon whose disk cache tier has failed
	// enough consecutive writes to be demoted to read-only memory-backed
	// mode; DegradedWrites counts the Puts that skipped the disk while
	// degraded. A later successful re-probe clears DiskDegraded.
	DiskDegraded   bool   `json:"diskDegraded,omitempty"`
	DegradedWrites uint64 `json:"degradedWrites,omitempty"`
	// GroupedPoints counts the subset of Executions simulated as members
	// of a multi-point electrical group (several clock periods served by
	// one trace simulation of their shared operating point).
	GroupedPoints uint64 `json:"groupedPoints"`
	// Hits is MemHits + DiskHits; Executions counts point jobs that
	// actually reached the simulator.
	Hits       uint64 `json:"hits"`
	Executions uint64 `json:"executions"`
}

// Sentinel errors shared by both client implementations. Remote wraps
// them with transport detail; test with errors.Is.
var (
	// ErrNotFound reports an unknown sweep id.
	ErrNotFound = errors.New("vos: unknown sweep")
	// ErrNotDone reports a Results call on a sweep that is still
	// pending or running.
	ErrNotDone = errors.New("vos: sweep not finished")
	// ErrAlreadyDone reports a Cancel aimed at a job that already
	// reached a terminal state (done, failed or canceled).
	ErrAlreadyDone = errors.New("vos: job already finished")
)

// SweepError is the terminal error of a sweep that failed or was
// canceled: Results (and Run) return it instead of partial results.
type SweepError struct {
	ID      string
	Status  string // StatusFailed or StatusCanceled
	Message string
}

func (e *SweepError) Error() string {
	return fmt.Sprintf("vos: sweep %s %s: %s", e.ID, e.Status, e.Message)
}

// APIError is a structured non-2xx response from a vosd daemon: the HTTP
// status plus the error envelope's code and message. It matches
// ErrNotFound and ErrNotDone under errors.Is according to its Code, so
// callers can treat Local and Remote failures uniformly.
type APIError struct {
	StatusCode int
	Code       string
	Message    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("vos: server error %d (%s): %s", e.StatusCode, e.Code, e.Message)
}

// Is maps envelope codes onto the package sentinels.
func (e *APIError) Is(target error) bool {
	switch target {
	case ErrNotFound:
		return e.Code == "not_found"
	case ErrNotDone:
		return e.Code == "sweep_running"
	case ErrAlreadyDone:
		return e.Code == "already_done"
	}
	return false
}

// Adder is a hardware-oracle adder pinned at one operating triad: every
// Add runs one two-vector timing experiment on the characterized
// netlist. It is satisfied by the simulator-backed oracle Local.Adder
// returns and mirrors the internal core.HardwareAdder seam, so it plugs
// directly into the model-training and application layers.
type Adder interface {
	Width() int
	Add(a, b uint64) uint64
}

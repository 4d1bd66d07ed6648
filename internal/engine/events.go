package engine

// Job event streaming: every job appends its incremental per-point
// progress to one event log, which any number of streams read, each at
// its own pace and without loss (see registry.subscribe). The daemon's
// NDJSON endpoints (internal/engine/httpapi) and the vos SDK's event
// channels are both thin adapters over this seam.

// Event types carried by SweepEvent.Type. A stream is a sequence of
// progress/point events followed by exactly one terminal event (done,
// failed or canceled), after which it ends.
const (
	// EventProgress reports a status or progress change without a point
	// payload: the initial snapshot on subscribe and the pending→running
	// transition (which carries the planned TotalPoints).
	EventProgress = "progress"
	// EventPoint reports one completed operating point, with the point's
	// summary and the operator it belongs to.
	EventPoint = "point"
	// EventDone, EventFailed and EventCanceled are the terminal events,
	// mirroring the sweep's final Status.
	EventDone     = "done"
	EventFailed   = "failed"
	EventCanceled = "canceled"
)

// SweepEvent is one entry of a sweep's event stream. It is the wire type
// of the daemon's GET /v1/sweeps/{id}/events NDJSON stream, so its JSON
// shape is part of the public API (see API.md).
type SweepEvent struct {
	Type    string `json:"type"`
	SweepID string `json:"sweepId"`
	Status  Status `json:"status"`
	// Progress is the counter set as of this event.
	Progress Progress `json:"progress"`
	// Bench, Arch and Width identify the operator of a point event.
	Bench string `json:"bench,omitempty"`
	Arch  string `json:"arch,omitempty"`
	Width int    `json:"width,omitempty"`
	// Point is the completed point's summary (point events only).
	Point *PointSummary `json:"point,omitempty"`
	// Error carries the failure reason of a failed/canceled terminal
	// event.
	Error string `json:"error,omitempty"`
}

// terminal reports whether a status is a sweep's final state.
func terminal(s Status) bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// terminalEventType maps a final status to its event type.
func terminalEventType(s Status) string {
	switch s {
	case StatusFailed:
		return EventFailed
	case StatusCanceled:
		return EventCanceled
	default:
		return EventDone
	}
}

package vos

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"testing"
)

// FuzzForwardEvents feeds arbitrary bytes, as one event-stream
// connection's body, through forwardEvents for the full Event and for
// the type-only reader Run and Wait follow with, on a first connection
// and on a replay. Whatever the bytes, forwardEvents returns, never
// forwards an event after a terminal one, and the type-only reader sees
// a terminal event whenever the full reader forwarded one (it decodes a
// subset of the same lines).
func FuzzForwardEvents(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, replay := range []bool{false, true} {
			full := forwardAll[Event](t, body, replay)
			typed := forwardAll[eventType](t, body, replay)
			if endsTerminal(full) && !endsTerminal(typed) {
				t.Fatalf("replay %v: the full reader forwarded %q but the type-only reader saw no terminal event",
					replay, full[len(full)-1].Type)
			}
		}
	})
}

// forwardAll runs forwardEvents over body and returns what it forwarded,
// failing t if an event follows a terminal one.
func forwardAll[E jobEvent](t *testing.T, body []byte, replay bool) []E {
	t.Helper()
	// Every forwarded event is one line of body, so the channel never
	// fills and forwardEvents needs no reader beside it.
	out := make(chan E, bytes.Count(body, []byte("\n"))+1)
	resp := reply{&http.Response{Body: io.NopCloser(bytes.NewReader(body))}, func() {}}
	forwardEvents(context.Background(), resp, out, make(map[string]int), replay)
	close(out)
	var evs []E
	for ev := range out {
		if len(evs) > 0 && evs[len(evs)-1].Terminal() {
			t.Fatalf("replay %v: event forwarded after the terminal event", replay)
		}
		evs = append(evs, ev)
	}
	return evs
}

func endsTerminal[E jobEvent](evs []E) bool {
	return len(evs) > 0 && evs[len(evs)-1].Terminal()
}

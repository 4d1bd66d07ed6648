package httpapi

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/triad"
)

// countingListener counts the writes the server makes to its
// connections.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	return countingConn{c, l.writes}, err
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// flushCounter counts a handler's explicit flushes.
type flushCounter struct {
	http.ResponseWriter
	flushes *atomic.Int64
}

func (f flushCounter) Flush() {
	f.flushes.Add(1)
	f.ResponseWriter.(http.Flusher).Flush()
}

// TestFinishedEventsOneFlush: a finished job's event stream is history
// only, so the handler never flushes it early, and the whole response
// leaves the server in one write.
func TestFinishedEventsOneFlush(t *testing.T) {
	eng, err := engine.New(engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	var flushes, writes atomic.Int64
	h := New(eng)
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(flushCounter{w, &flushes}, r)
	}))
	ts.Listener = countingListener{ts.Listener, &writes}
	ts.Start()
	t.Cleanup(ts.Close)

	id := submit(t, ts, `{"arches":["RCA"],"widths":[4],"patterns":40,"seed":7,"policy":"triads","triads":[{"tclk":0.5,"vdd":0.8,"vbb":0}]}`)
	waitDone(t, ts, id)
	flushes.Store(0)
	writes.Store(0)
	events := readEvents(t, ts, id)
	if len(events) != 3 || events[1].Type != engine.EventPoint || events[2].Type != engine.EventDone {
		t.Fatalf("events %+v, want running, the point and done", events)
	}
	if n := flushes.Load(); n != 0 {
		t.Errorf("%d explicit flushes of a finished job's stream, want 0", n)
	}
	if n := writes.Load(); n != 1 {
		t.Errorf("finished job's stream took %d writes, want 1", n)
	}
}

// gatedCache holds back the Get of one key until release closes.
type gatedCache struct {
	*engine.Cache
	key     string
	release chan struct{}
}

func (g gatedCache) Get(ctx context.Context, key string) (*engine.Entry, bool) {
	if key == g.key {
		<-g.release
	}
	return g.Cache.Get(ctx, key)
}

// TestLiveEventsFlushEachPoint: a live job's stream reaches the client as
// each point is published, not with the terminal event. The sweep's
// second point cannot finish until the test has read the first.
func TestLiveEventsFlushEachPoint(t *testing.T) {
	req := engine.Request{Arches: []string{"RCA"}, Widths: []int{4}, Patterns: 40, Seed: 7,
		Policy: engine.PolicyExplicit, Triads: []triad.Triad{{Tclk: 0.5, Vdd: 0.8}, {Tclk: 0.5, Vdd: 0.8, Vbb: 2}}}
	cfg, err := req.OperatorConfig("RCA", 4)
	if err != nil {
		t.Fatal(err)
	}
	held, err := engine.PointKey(cfg, req.Triads[1])
	if err != nil {
		t.Fatal(err)
	}
	cache, err := engine.NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var once atomic.Bool
	unblock := func() {
		if once.CompareAndSwap(false, true) {
			close(release)
		}
	}
	eng, err := engine.New(engine.Options{Workers: 2, Backend: gatedCache{cache, held, release}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(New(eng))
	t.Cleanup(ts.Close)
	t.Cleanup(unblock) // first: Close waits for the held sweep

	body, _ := json.Marshal(req)
	id := submit(t, ts, string(body))
	ctx, cancel := context.WithTimeout(t.Context(), 30*time.Second)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/sweeps/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var types []string
	for sc.Scan() {
		var ev engine.SweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		types = append(types, ev.Type)
		if ev.Type == engine.EventPoint {
			unblock() // the first point arrived while the second was held
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream ended with %v after %v: the first point never arrived on its own", err, types)
	}
	if got := strings.Join(types, ","); !strings.HasSuffix(got, "point,point,done") {
		t.Fatalf("stream read %s", got)
	}
}

package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/charz"
	"repro/internal/engine"
	"repro/internal/engine/httpapi"
	"repro/internal/metrics"
	"repro/internal/triad"
)

// fakePeer is a real vosd cache surface: an httpapi handler over a
// plain engine.Cache, served on a loopback listener.
type fakePeer struct {
	url   string
	cache *engine.Cache
	ts    *httptest.Server
}

func newFakePeer(t *testing.T) *fakePeer {
	t.Helper()
	cache, err := engine.NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.Options{Workers: 1, Backend: cache})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(httpapi.New(eng, httpapi.WithCacheStore(cache)))
	t.Cleanup(ts.Close)
	return &fakePeer{url: ts.URL, cache: cache, ts: ts}
}

// testKey derives a valid (64-hex) cache key from a label.
func testKey(label string) string {
	sum := sha256.Sum256([]byte(label))
	return hex.EncodeToString(sum[:])
}

// testEntry returns a cache entry holding a point result, a different
// one for each n.
func testEntry(t *testing.T, n float64) *engine.Entry {
	t.Helper()
	data, err := json.Marshal(&charz.TriadResult{
		Triad: triad.Triad{Tclk: n, Vdd: 1},
		Acc:   metrics.NewErrorAccumulator(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.NewEntry(data)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func newTestPeerCache(t *testing.T, self string, peerURLs ...string) *PeerCache {
	t.Helper()
	local, err := engine.NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	members := append([]string{self}, peerURLs...)
	ps, err := newPeerSet(self, members, nil)
	if err != nil {
		t.Fatal(err)
	}
	pc := NewPeerCache(local, NewRing(members, 0), ps, PeerCacheOptions{})
	t.Cleanup(pc.Close)
	return pc
}

// TestPeerCacheFill checks a local miss is filled from a peer and
// written through: the second Get must not touch the network.
func TestPeerCacheFill(t *testing.T) {
	peer := newFakePeer(t)
	pc := newTestPeerCache(t, "http://self.invalid", peer.url)

	key := testKey("fill")
	want := testEntry(t, 1)
	peer.cache.Put(key, want)

	e, ok := pc.Get(t.Context(), key)
	if !ok || string(e.Bytes()) != string(want.Bytes()) {
		t.Fatalf("Get = %v, %v; want peer fill", e, ok)
	}
	peer.ts.Close() // sever the network: the write-through copy must answer
	if e, ok := pc.Get(t.Context(), key); !ok || string(e.Bytes()) != string(want.Bytes()) {
		t.Fatalf("second Get = %v, %v; want local write-through hit", e, ok)
	}
	s := pc.Stats()
	if s.PeerHits != 1 || s.PeerErrors != 0 {
		t.Fatalf("stats = %+v; want exactly one peer hit", s)
	}
}

// TestPeerCacheMiss checks a fleet-wide miss is reported (and counted)
// as such.
func TestPeerCacheMiss(t *testing.T) {
	peer := newFakePeer(t)
	pc := newTestPeerCache(t, "http://self.invalid", peer.url)
	if _, ok := pc.Get(t.Context(), testKey("nowhere")); ok {
		t.Fatal("Get of an absent key succeeded")
	}
	if s := pc.Stats(); s.PeerMisses != 1 || s.PeerHits != 0 {
		t.Fatalf("stats = %+v; want one peer miss", s)
	}
}

// TestPeerCachePush checks a Put whose key belongs to a peer on the
// ring is replicated to that owner.
func TestPeerCachePush(t *testing.T) {
	peer := newFakePeer(t)
	self := "http://self.invalid"
	pc := newTestPeerCache(t, self, peer.url)
	ring := NewRing([]string{self, peer.url}, 0)

	// Find a key the peer owns; with two members and 128 vnodes each,
	// a handful of candidates always suffices.
	key := ""
	for i := 0; i < 64; i++ {
		k := testKey(fmt.Sprintf("push-%d", i))
		if ring.Owner(k) == peer.url {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no key owned by the peer in 64 candidates")
	}
	want := testEntry(t, 2)
	pc.Put(key, want)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if e, ok := peer.cache.Get(t.Context(), key); ok {
			if string(e.Bytes()) != string(want.Bytes()) {
				t.Fatalf("peer received %q", e.Bytes())
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("push never reached the ring owner")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if s := pc.Stats(); s.PeerPushes != 1 {
		t.Fatalf("stats = %+v; want one peer push", s)
	}
}

// TestPeerCacheOwnKeyNotPushed checks keys the local node owns stay
// local.
func TestPeerCacheOwnKeyNotPushed(t *testing.T) {
	peer := newFakePeer(t)
	self := "http://self.invalid"
	pc := newTestPeerCache(t, self, peer.url)
	ring := NewRing([]string{self, peer.url}, 0)
	key := ""
	for i := 0; i < 64; i++ {
		k := testKey(fmt.Sprintf("own-%d", i))
		if ring.Owner(k) == self {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no self-owned key in 64 candidates")
	}
	pc.Put(key, testEntry(t, 3))
	time.Sleep(50 * time.Millisecond)
	if _, ok := peer.cache.Get(t.Context(), key); ok {
		t.Fatal("self-owned key was replicated to the peer")
	}
	if s := pc.Stats(); s.PeerPushes != 0 {
		t.Fatalf("stats = %+v; want no pushes", s)
	}
}

// TestPeerCacheBreaker checks a dead peer stops being consulted once
// its breaker opens: errors are bounded, not per-Get forever.
func TestPeerCacheBreaker(t *testing.T) {
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close()
	pc := newTestPeerCache(t, "http://self.invalid", deadURL)

	for i := 0; i < breakerThreshold+3; i++ {
		pc.Get(t.Context(), testKey(fmt.Sprintf("dead-%d", i)))
	}
	s := pc.Stats()
	if s.PeerErrors != breakerThreshold {
		t.Fatalf("PeerErrors = %d; want the breaker to cap at %d", s.PeerErrors, breakerThreshold)
	}
}

// TestPeerCacheRejectsNonPoint: a peer that serves valid JSON that is no
// point result — {} and the like — counts as a peer error, not a hit,
// and the sweep needing the point computes it instead of serving the
// bogus entry.
func TestPeerCacheRejectsNonPoint(t *testing.T) {
	for _, bad := range []string{`{}`, `null`, `{"Acc":null}`} {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/cache/entries/{key}", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, bad)
		})
		peer := httptest.NewServer(mux)
		pc := newTestPeerCache(t, "http://self.invalid", peer.URL)
		eng, err := engine.New(engine.Options{Workers: 1, Backend: pc})
		if err != nil {
			t.Fatal(err)
		}
		id, err := eng.Submit(engine.Request{Arches: []string{"RCA"}, Widths: []int{4}, Patterns: 40, Seed: 7,
			Policy: engine.PolicyExplicit, Triads: []triad.Triad{{Tclk: 0.5, Vdd: 0.8}}})
		if err != nil {
			t.Fatal(err)
		}
		sw, err := eng.Wait(t.Context(), id)
		if err != nil || sw.Status != engine.StatusDone {
			t.Fatalf("%s: sweep %v %s (%s)", bad, err, sw.Status, sw.Error)
		}
		if s := pc.Stats(); s.PeerErrors != 1 || s.PeerHits != 0 || eng.Executions() != 1 {
			t.Fatalf("%s: stats %+v, %d executions; want a peer error and a recomputed point", bad, s, eng.Executions())
		}
		eng.Close()
		peer.Close()
	}
}

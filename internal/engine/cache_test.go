package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/charz"
	"repro/internal/metrics"
	"repro/internal/triad"
)

func cacheTestKey(label string) string {
	sum := sha256.Sum256([]byte(label))
	return hex.EncodeToString(sum[:])
}

// testPoint returns the JSON encoding of a point result, a different one
// for each n.
func testPoint(n float64) []byte {
	data, err := json.Marshal(&charz.TriadResult{
		Triad: triad.Triad{Tclk: n, Vdd: 1},
		Acc:   metrics.NewErrorAccumulator(2),
	})
	if err != nil {
		panic(err)
	}
	return data
}

// testEntry returns testPoint(n) as a cache entry.
func testEntry(t testing.TB, n float64) *Entry {
	t.Helper()
	e, err := NewEntry(testPoint(n))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// scriptedFaults is a deterministic CacheFaultInjector for tests: each
// queue pops one decision per call, empty means no fault.
type scriptedFaults struct {
	writes  []writeFault
	renames []bool
	reads   []bool
}

type writeFault struct {
	truncate int
	fail     bool
}

func (f *scriptedFaults) WriteFault(key string) (int, bool) {
	if len(f.writes) == 0 {
		return 0, false
	}
	w := f.writes[0]
	f.writes = f.writes[1:]
	return w.truncate, w.fail
}

func (f *scriptedFaults) RenameFault(key string) bool {
	if len(f.renames) == 0 {
		return false
	}
	r := f.renames[0]
	f.renames = f.renames[1:]
	return r
}

func (f *scriptedFaults) ReadFault(key string) bool {
	if len(f.reads) == 0 {
		return false
	}
	r := f.reads[0]
	f.reads = f.reads[1:]
	return r
}

// TestCacheWriteSurvivesRename: the normal Put path publishes a
// complete entry through the temp-fsync-rename protocol; a fresh cache
// over the same directory serves it.
func TestCacheWriteSurvivesRename(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := cacheTestKey("durable")
	c.Put(key, testEntry(t, 1))
	// No temp files may survive a successful publish.
	matches, _ := filepath.Glob(filepath.Join(dir, key[:2], "*.tmp*"))
	if len(matches) != 0 {
		t.Fatalf("temp files left behind: %v", matches)
	}
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := c2.Get(t.Context(), key); !ok || string(e.Bytes()) != string(testPoint(1)) {
		t.Fatalf("fresh cache reads %v, %v", e, ok)
	}
}

// TestCacheInjectedShortWrite: a fault-injected torn write (published
// prefix) is caught by the corrupt-entry recovery on the next Get —
// deleted, counted, served as a miss.
func TestCacheInjectedShortWrite(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.SetFaults(&scriptedFaults{writes: []writeFault{{truncate: 3}}})
	key := cacheTestKey("torn")
	c.Put(key, testEntry(t, 123456))
	// The torn entry is on disk; evict the memory copy to force the
	// disk read (a fresh cache models the post-crash process).
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(t.Context(), key); ok {
		t.Fatal("torn entry served as a hit")
	}
	s := c2.Stats()
	if s.CorruptEntries != 1 {
		t.Fatalf("stats = %+v; want the torn entry counted corrupt", s)
	}
	if _, err := os.Stat(c2.path(key)); !os.IsNotExist(err) {
		t.Fatalf("torn entry not deleted (stat err = %v)", err)
	}
}

// TestCacheInjectedWriteAndRenameFaults: outright write failures and
// rename failures count as WriteErrors and leave no debris; the entry
// still lands in memory.
func TestCacheInjectedWriteAndRenameFaults(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.SetFaults(&scriptedFaults{
		writes:  []writeFault{{fail: true}, {}},
		renames: []bool{true}, // second write reaches the rename and fails there
	})
	k1, k2 := cacheTestKey("wf"), cacheTestKey("rf")
	c.Put(k1, testEntry(t, 1))
	c.Put(k2, testEntry(t, 2))
	s := c.Stats()
	if s.WriteErrors != 2 {
		t.Fatalf("stats = %+v; want two write errors", s)
	}
	for _, k := range []string{k1, k2} {
		if e, ok := c.Get(t.Context(), k); !ok || len(e.Bytes()) == 0 {
			t.Fatalf("entry %s lost from the memory layer", k[:8])
		}
		if _, err := os.Stat(c.path(k)); !os.IsNotExist(err) {
			t.Fatalf("failed write for %s left a disk entry", k[:8])
		}
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "*", "*.tmp*"))
	if len(matches) != 0 {
		t.Fatalf("temp files left behind: %v", matches)
	}
}

// TestCacheInjectedReadFault: a read fault is served as a plain miss
// without touching the on-disk entry.
func TestCacheInjectedReadFault(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := cacheTestKey("readfault")
	c.Put(key, testEntry(t, 1))
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2.SetFaults(&scriptedFaults{reads: []bool{true}})
	if _, ok := c2.Get(t.Context(), key); ok {
		t.Fatal("read-faulted Get served a hit")
	}
	// The fault queue is drained: the next Get reads the intact entry.
	if e, ok := c2.Get(t.Context(), key); !ok || string(e.Bytes()) != string(testPoint(1)) {
		t.Fatalf("entry damaged by a read fault: %v, %v", e, ok)
	}
}

// TestCacheDegradedMode walks the full degradation lifecycle: repeated
// write failures flip the cache into read-only memory-backed mode
// (writes skip the disk, stats say so, existing disk entries still
// serve), and a successful re-probe restores it.
func TestCacheDegradedMode(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A pre-degradation entry, present on disk.
	oldKey := cacheTestKey("old")
	c.Put(oldKey, testEntry(t, 10))

	// Short re-probe interval so the recovery leg runs in test time.
	defer func(d time.Duration) { reprobeInterval = d }(reprobeInterval)
	reprobeInterval = 50 * time.Millisecond

	faults := &scriptedFaults{}
	for i := 0; i < degradeThreshold; i++ {
		faults.writes = append(faults.writes, writeFault{fail: true})
	}
	c.SetFaults(faults)
	for i := 0; i < degradeThreshold; i++ {
		c.Put(cacheTestKey(fmt.Sprintf("fail-%d", i)), testEntry(t, 1))
	}
	s := c.Stats()
	if !s.DiskDegraded {
		t.Fatalf("stats = %+v; want DiskDegraded after %d consecutive failures", s, degradeThreshold)
	}

	// While degraded: writes land in memory only and are counted.
	degKey := cacheTestKey("while-degraded")
	c.Put(degKey, testEntry(t, 11))
	s = c.Stats()
	if s.DegradedWrites == 0 {
		t.Fatalf("stats = %+v; want degraded writes counted", s)
	}
	if _, err := os.Stat(c.path(degKey)); !os.IsNotExist(err) {
		t.Fatal("degraded write reached the disk")
	}
	if e, ok := c.Get(t.Context(), degKey); !ok || string(e.Bytes()) != string(testPoint(11)) {
		t.Fatalf("degraded entry lost: %v, %v", e, ok)
	}
	// Existing disk entries still serve (read-only mode, not dead).
	c.mu.Lock()
	delete(c.mem, oldKey) // drop the memory copy to force the disk path
	c.mu.Unlock()
	if e, ok := c.Get(t.Context(), oldKey); !ok || string(e.Bytes()) != string(testPoint(10)) {
		t.Fatalf("disk entry unreadable while degraded: %v, %v", e, ok)
	}

	// Recovery: once the re-probe interval passes, the next Put probes
	// the (now fault-free) disk and un-degrades the cache.
	time.Sleep(60 * time.Millisecond)
	recKey := cacheTestKey("recovered")
	c.Put(recKey, testEntry(t, 12))
	s = c.Stats()
	if s.DiskDegraded {
		t.Fatalf("stats = %+v; want recovery after a successful probe", s)
	}
	if _, err := os.Stat(c.path(recKey)); err != nil {
		t.Fatalf("post-recovery write missing from disk: %v", err)
	}
}

// TestCacheDegradedSuspendsEviction: while degraded the memory layer
// must hold everything — an evicted entry would have no disk copy.
func TestCacheDegradedSuspendsEviction(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func(d time.Duration) { reprobeInterval = d }(reprobeInterval)
	reprobeInterval = time.Hour // no recovery during the test

	faults := &scriptedFaults{}
	for i := 0; i < degradeThreshold; i++ {
		faults.writes = append(faults.writes, writeFault{fail: true})
	}
	c.SetFaults(faults)
	for i := 0; i < degradeThreshold; i++ {
		c.Put(cacheTestKey(fmt.Sprintf("fail-%d", i)), testEntry(t, 1))
	}
	if !c.Stats().DiskDegraded {
		t.Fatal("cache must be degraded")
	}
	for i := 0; i < maxMemEntries+64; i++ {
		c.Put(cacheTestKey(fmt.Sprintf("bulk-%d", i)), testEntry(t, 1))
	}
	if n := c.Stats().MemEntries; n <= maxMemEntries {
		t.Fatalf("MemEntries = %d; eviction ran while degraded", n)
	}
}

// TestCacheBackendContext: the ctx-aware Get contract — the in-process
// cache ignores the context (even canceled) and still serves.
func TestCacheBackendContext(t *testing.T) {
	c, err := NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	key := cacheTestKey("ctx")
	c.Put(key, testEntry(t, 1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok := c.Get(ctx, key); !ok {
		t.Fatal("in-process cache must serve under a canceled context")
	}
}

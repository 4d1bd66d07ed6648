package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/charz"
	"repro/internal/fdsoi"
	"repro/internal/model"
	"repro/internal/triad"
)

// keySchemaVersion is baked into every cache key; bump it whenever the
// simulation semantics or the serialized result format change so stale
// entries can never be returned for new code.
//
// History:
//
//	1: original map+binary-heap simulation core.
//	2: dense-state core (calendar queue, dense stimulus, bit-sliced batch
//	   reference). Point results are proven bit-identical to v1 by the
//	   golden parity test, but entries computed by the old core must not
//	   be served as equal keys for the new one: equality of keys has to
//	   imply the exact code path, not a proof obligation.
//	3: word-parallel core (64-lane bit-sliced event waves as the default
//	   gate-backend path, lane-accumulated error statistics). Again proven
//	   bit-identical by the golden parity suite, again keyed apart.
//	4: trace/resample core (one full-settle trace simulation per
//	   electrical operating point, every Tclk of the group answered by an
//	   O(trace) resample). Proven bit-identical by the golden parity
//	   suite and the grouping parity tests, keyed apart on the same
//	   principle: equal keys must imply the exact code path.
//	5: quantized-and-dithered delay grid (gate delays rounded to a 2⁻⁴⁰ ns
//	   dyadic grid plus a deterministic per-gate sub-quantum dither, the
//	   basis of order-stable cross-voltage retiming). This one is not
//	   bit-identical to v4 — energies move by ~10⁻⁵ relative, borderline
//	   late events can flip — so the golden parity corpus was regenerated
//	   and old entries must never satisfy new keys.
//	6: calibrated model backend (internal/model). Gate/RC results are
//	   unchanged, but keyMaterial grew the Model dimension (the
//	   calibration-spec fingerprint, set only for model-backend points)
//	   and TriadResult grew the optional Fidelity report; keying the
//	   format change apart keeps pre-model entries from ever decoding
//	   into the new shape.
const keySchemaVersion = 6

// keyMaterial is the canonical content that identifies one operating-point
// result. Everything that can change the simulator's output is in here —
// and nothing else: Config.Triads (the sweep set, not the point) is
// deliberately absent.
type keyMaterial struct {
	Version       int          `json:"v"`
	Arch          string       `json:"arch"`
	Width         int          `json:"width"`
	Patterns      int          `json:"patterns"`
	Seed          uint64       `json:"seed"`
	PropagateP    float64      `json:"propagateP"`
	MismatchSigma float64      `json:"mismatchSigma"`
	Backend       string       `json:"backend"`
	Streaming     bool         `json:"streaming"`
	Proc          fdsoi.Params `json:"proc"`
	LibFP         string       `json:"libFP"`
	Tclk          float64      `json:"tclk"`
	Vdd           float64      `json:"vdd"`
	Vbb           float64      `json:"vbb"`
	// Model is the calibration-spec fingerprint (model.Spec.Fingerprint)
	// for model-backend points, empty otherwise. Modeled results depend
	// on the training recipe as much as on the operator, so a recipe
	// change must re-key them; gate/RC keys are untouched by it.
	Model string `json:"model,omitempty"`
}

// PointKey returns the content-addressed cache key of one operating point:
// a stable hash of the canonicalized Config, the triad, and the process and
// library fingerprints. Identical keys imply byte-identical results.
func PointKey(cfg charz.Config, tr triad.Triad) (string, error) {
	k, err := newPointKeyer(cfg)
	if err != nil {
		return "", err
	}
	return k.key(tr)
}

// pointKeyer derives the cache keys of one operator's points. Their
// keyMaterial differs only in the triad, so its JSON encoding is split
// once around the triad's three numbers and each key encodes just those.
// The bytes hashed are exactly json.Marshal(keyMaterial)'s.
type pointKeyer struct {
	// head ends with `"tclk":`; tail follows the vbb number.
	head, tail []byte
}

// zeroTriadJSON is the triad's part of an encoded keyMaterial whose
// triad is zero.
const zeroTriadJSON = `"tclk":0,"vdd":0,"vbb":0`

func newPointKeyer(cfg charz.Config) (*pointKeyer, error) {
	canon, err := cfg.Canonical()
	if err != nil {
		return nil, err
	}
	m := keyMaterial{
		Version:       keySchemaVersion,
		Arch:          canon.Arch.String(),
		Width:         canon.Width,
		Patterns:      canon.Patterns,
		Seed:          canon.Seed,
		PropagateP:    canon.PropagateP,
		MismatchSigma: canon.MismatchSigma,
		Backend:       canon.Backend.String(),
		Streaming:     canon.Streaming,
		Proc:          *canon.Proc,
		LibFP:         canon.Lib.Fingerprint(),
	}
	if canon.Backend == charz.BackendModel {
		m.Model = model.DefaultSpec().Fingerprint()
	}
	data, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	i := bytes.LastIndex(data, []byte(zeroTriadJSON))
	if i < 0 {
		return nil, fmt.Errorf("engine: key material %s has no triad", data)
	}
	return &pointKeyer{head: data[:i+len(`"tclk":`)], tail: data[i+len(zeroTriadJSON):]}, nil
}

// pointKeys returns the cache keys of one operator's points at trs,
// keys[i] being PointKey(cfg, trs[i]).
func pointKeys(cfg charz.Config, trs []triad.Triad) ([]string, error) {
	k, err := newPointKeyer(cfg)
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(trs))
	for i, tr := range trs {
		if keys[i], err = k.key(tr); err != nil {
			return nil, err
		}
	}
	return keys, nil
}

// key returns the cache key of the operator's point at tr.
func (k *pointKeyer) key(tr triad.Triad) (string, error) {
	b, err := k.material(tr)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// material returns the JSON encoding of the point's keyMaterial.
func (k *pointKeyer) material(tr triad.Triad) ([]byte, error) {
	b := make([]byte, 0, len(k.head)+len(k.tail)+80)
	b = append(b, k.head...)
	var err error
	if b, err = appendJSONFloat(b, tr.Tclk); err != nil {
		return nil, err
	}
	b = append(b, `,"vdd":`...)
	if b, err = appendJSONFloat(b, tr.Vdd); err != nil {
		return nil, err
	}
	b = append(b, `,"vbb":`...)
	if b, err = appendJSONFloat(b, tr.Vbb); err != nil {
		return nil, err
	}
	return append(b, k.tail...), nil
}

// appendJSONFloat appends f as encoding/json encodes a float64: the
// shortest digits that round-trip, in exponent form below 1e-6 and from
// 1e21 up, with the exponent unpadded. NaN and ±Inf have no encoding.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("engine: triad value %v has no JSON encoding", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	return b, nil
}

// prepKey identifies a prepared (synthesized) operator: the subset of
// keyMaterial that influences netlist generation and the synthesis report.
func prepKey(cfg charz.Config) (string, error) {
	canon, err := cfg.Canonical()
	if err != nil {
		return "", err
	}
	m := keyMaterial{
		Version:       keySchemaVersion,
		Arch:          canon.Arch.String(),
		Width:         canon.Width,
		Seed:          canon.Seed,
		MismatchSigma: canon.MismatchSigma,
		Proc:          *canon.Proc,
		LibFP:         canon.Lib.Fingerprint(),
	}
	data, err := json.Marshal(m)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// CacheStats reports the cache's activity counters.
type CacheStats struct {
	// MemHits and DiskHits count Gets served from each layer; Misses
	// count Gets that found nothing.
	MemHits  uint64 `json:"memHits"`
	DiskHits uint64 `json:"diskHits"`
	Misses   uint64 `json:"misses"`
	// Stores counts Puts; WriteErrors counts disk writes that failed
	// (the entry still lands in the memory layer).
	Stores      uint64 `json:"stores"`
	WriteErrors uint64 `json:"writeErrors"`
	// CorruptEntries counts on-disk entries found truncated or otherwise
	// not a decodable point result — each was deleted and its Get served
	// as a miss.
	// Several daemons sharing one cache volume make this reachable in
	// practice (a peer dying mid-write leaves at worst a stale temp
	// file, but pre-rename layouts and disk faults still happen).
	CorruptEntries uint64 `json:"corruptEntries,omitempty"`
	// MemEntries is the current size of the in-memory layer.
	MemEntries int `json:"memEntries"`
	// Peer-tier counters, filled by the cluster peer cache
	// (internal/cluster.PeerCache); zero — and omitted from JSON — on a
	// single-node cache. PeerHits count misses filled from a peer vosd
	// node, PeerMisses fan-outs that found nothing anywhere, PeerErrors
	// failed peer fetches (timeouts, open breakers are not counted),
	// PeerPushes entries replicated to their ring owner, and
	// PeerPushDrops pushes discarded because the replication queue was
	// full.
	PeerHits      uint64 `json:"peerHits,omitempty"`
	PeerMisses    uint64 `json:"peerMisses,omitempty"`
	PeerErrors    uint64 `json:"peerErrors,omitempty"`
	PeerPushes    uint64 `json:"peerPushes,omitempty"`
	PeerPushDrops uint64 `json:"peerPushDrops,omitempty"`
	// PeerPushQueueDepth and PeerPushQueueCap expose the replication
	// queue's current backlog against its capacity (cluster peer cache
	// only) so backpressure — the precursor of PeerPushDrops — is
	// visible before entries are actually discarded.
	PeerPushQueueDepth int `json:"peerPushQueueDepth,omitempty"`
	PeerPushQueueCap   int `json:"peerPushQueueCap,omitempty"`
	// DiskDegraded reports that the disk layer has been taken out of the
	// write path after repeated write failures: the cache serves
	// existing disk entries read-only and stores new results in memory
	// only (eviction suspended, since evicted entries would have no disk
	// copy to fall back to). A periodic write probe restores the disk
	// layer when the directory becomes writable again. DegradedWrites
	// counts the Puts that skipped the disk layer while degraded.
	DiskDegraded   bool   `json:"diskDegraded,omitempty"`
	DegradedWrites uint64 `json:"degradedWrites,omitempty"`
	// GroupedPoints counts points simulated as members of a multi-point
	// electrical group — several Tclk values served by one trace
	// simulation — as opposed to points simulated solo or served from
	// the cache. Engine-level, filled by Engine.CacheStats: the counters
	// above would otherwise silently conflate a group ride-along with a
	// per-triad cache hit.
	GroupedPoints uint64 `json:"groupedPoints"`
}

// Hits returns the total hit count across layers, the peer tier
// included.
func (s CacheStats) Hits() uint64 { return s.MemHits + s.DiskHits + s.PeerHits }

// Entry is one stored point result: its JSON encoding, which is its
// form on disk, on /v1/cache/entries and in replication, and the result
// decoded from that encoding once, when the entry was made. Every reader
// of an entry shares the decoded result, so none may modify it.
type Entry struct {
	data []byte
	res  *charz.TriadResult
}

// NewEntry decodes a point result's JSON encoding into an entry. It fails
// on anything that is not a point result — invalid JSON, or a value with
// no error accumulator such as {} or null — so no store admits an entry
// the engine could not serve.
func NewEntry(data []byte) (*Entry, error) {
	res, err := decodePoint(data)
	if err != nil {
		return nil, err
	}
	return &Entry{data: data, res: res}, nil
}

// Bytes returns the entry's JSON encoding.
func (e *Entry) Bytes() []byte { return e.data }

// Point returns the decoded result. It is shared and read-only.
func (e *Entry) Point() *charz.TriadResult { return e.res }

func decodePoint(data []byte) (*charz.TriadResult, error) {
	var res charz.TriadResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("engine: corrupt cached point: %w", err)
	}
	if res.Acc == nil {
		return nil, errors.New("engine: cached point has no error accumulator")
	}
	return &res, nil
}

// CacheBackend is the engine's pluggable result-store seam. The
// in-process *Cache is the default implementation; the cluster layer's
// PeerCache wraps one and fills misses from peer vosd nodes. Both keep
// entries decoded (see Entry), so a hit costs a lookup: entries are
// decoded when they are made — when the engine stores a result, or when a
// backend fills one from disk or a peer and rejects what does not decode.
// Get and Put must be safe for concurrent use. Get receives the
// requesting sweep's context so network-backed implementations bound
// their fetches by the sweep's deadline and abandon them on
// cancellation; the in-process Cache ignores it.
type CacheBackend interface {
	Get(ctx context.Context, key string) (*Entry, bool)
	Put(key string, e *Entry)
	Stats() CacheStats
}

// CacheFaultInjector is the disk cache's fault seam, implemented by the
// chaos injector (internal/chaos) and installed with Cache.SetFaults.
// WriteFault may fail an entry write outright or publish only the first
// truncate bytes (a torn write that still got renamed into place);
// RenameFault fails the publishing rename; ReadFault fails an entry
// read. All decisions are the injector's — the cache just obeys, and
// its accounting treats injected faults exactly like real ones.
type CacheFaultInjector interface {
	WriteFault(key string) (truncate int, fail bool)
	RenameFault(key string) bool
	ReadFault(key string) bool
}

// maxMemEntries bounds the in-memory layer of a disk-backed cache so a
// long-running daemon's memory stays flat: beyond it, the oldest entries
// are dropped (they remain on disk). A memory-only cache is unbounded —
// eviction there would silently discard results.
const maxMemEntries = 8192

// degradeThreshold is how many consecutive disk write failures flip the
// cache into read-only memory-backed degraded mode; a single transient
// error shouldn't take the disk layer out of the write path.
const degradeThreshold = 3

// reprobeInterval is how often a degraded cache retries a disk write to
// detect that the directory has become writable again. A variable so
// tests can shrink it.
var reprobeInterval = 30 * time.Second

// Cache is a two-layer content-addressed result store: a map of decoded
// entries in memory and an optional JSON-file-per-key directory on disk.
// Disk entries survive process restarts, so repeated CLI runs and
// benchmark re-runs are served without simulation. All methods are safe
// for concurrent use.
//
// When the disk layer fails degradeThreshold consecutive writes the
// cache degrades to a read-only memory-backed mode: existing disk
// entries are still served, new results live in memory only (with
// eviction suspended — an evicted entry would have no disk copy), and a
// periodic write probe restores the disk layer once it recovers. The
// transition is visible in CacheStats.DiskDegraded/DegradedWrites.
type Cache struct {
	dir string

	mu        sync.Mutex
	mem       map[string]*Entry
	order     []string // insertion order of mem keys, for FIFO eviction
	stats     CacheStats
	consec    int       // consecutive disk write failures
	degraded  bool      // disk layer out of the write path
	nextProbe time.Time // earliest next disk write attempt while degraded
	faults    CacheFaultInjector
}

// NewCache returns a cache rooted at dir; an empty dir means memory-only.
func NewCache(dir string) (*Cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("engine: cache dir: %w", err)
		}
	}
	return &Cache{dir: dir, mem: make(map[string]*Entry)}, nil
}

// SetFaults installs a fault injector on the cache's filesystem
// operations (nil uninstalls). Not safe to call concurrently with cache
// use; wire it before the engine starts.
func (c *Cache) SetFaults(f CacheFaultInjector) { c.faults = f }

// insertLocked adds an entry to the memory layer, evicting the oldest
// entries beyond the cap when a disk layer backs them. While degraded
// no disk layer is taking writes, so eviction is suspended — the memory
// layer is temporarily the only copy. Callers hold mu.
func (c *Cache) insertLocked(key string, e *Entry) {
	if _, ok := c.mem[key]; !ok {
		c.order = append(c.order, key)
	}
	c.mem[key] = e
	if c.dir == "" || c.degraded {
		return
	}
	for len(c.mem) > maxMemEntries && len(c.order) > 0 {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.mem, oldest)
	}
}

// path shards entries by the first key byte to keep directories small.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// Get returns the entry for key, consulting memory then disk. A disk hit
// is decoded and promoted into the memory layer. A disk entry that does
// not decode as a point result — truncated by a crash, corrupted on a
// shared cache volume, or valid JSON of the wrong shape — is deleted and
// reported as a miss, never surfaced: callers would decode garbage once
// per Get forever, and on a directory shared between daemons the bad
// bytes would spread through the peer tier. The context is part of the
// CacheBackend contract; the in-process cache's disk read does not use
// it.
func (c *Cache) Get(ctx context.Context, key string) (*Entry, bool) {
	c.mu.Lock()
	if e, ok := c.mem[key]; ok {
		c.stats.MemHits++
		c.mu.Unlock()
		return e, true
	}
	c.mu.Unlock()
	if c.dir != "" {
		if c.faults != nil && c.faults.ReadFault(key) {
			c.mu.Lock()
			c.stats.Misses++
			c.mu.Unlock()
			return nil, false
		}
		if data, err := os.ReadFile(c.path(key)); err == nil {
			e, err := NewEntry(data)
			if err != nil {
				os.Remove(c.path(key))
				c.mu.Lock()
				c.stats.CorruptEntries++
				c.stats.Misses++
				c.mu.Unlock()
				return nil, false
			}
			c.mu.Lock()
			c.insertLocked(key, e)
			c.stats.DiskHits++
			c.mu.Unlock()
			return e, true
		}
	}
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	return nil, false
}

// Put stores the entry under key in both layers. Disk failures are
// recorded in the stats but do not fail the Put: the memory layer is the
// source of truth for the current process. degradeThreshold consecutive
// disk failures degrade the cache to memory-only writes until a
// periodic probe finds the directory writable again.
func (c *Cache) Put(key string, e *Entry) {
	var writeErr, wrote bool
	if c.dir != "" && c.shouldWriteDisk() {
		writeErr = c.writeDisk(key, e.data) != nil
		wrote = true
	}
	c.mu.Lock()
	c.insertLocked(key, e)
	c.stats.Stores++
	switch {
	case !wrote && c.dir != "":
		c.stats.DegradedWrites++
	case writeErr:
		c.stats.WriteErrors++
		c.consec++
		if c.degraded {
			// Failed probe: stay degraded, back off until the next one.
			c.nextProbe = time.Now().Add(reprobeInterval)
		} else if c.consec >= degradeThreshold {
			c.degraded = true
			c.stats.DiskDegraded = true
			c.nextProbe = time.Now().Add(reprobeInterval)
		}
	case wrote:
		c.consec = 0
		if c.degraded {
			c.degraded = false
			c.stats.DiskDegraded = false
		}
	}
	c.mu.Unlock()
}

// GetLocal implements httpapi.CacheStore: an entry's JSON encoding.
func (c *Cache) GetLocal(key string) ([]byte, bool) {
	e, ok := c.Get(context.Background(), key)
	if !ok {
		return nil, false
	}
	return e.data, true
}

// PutLocal implements httpapi.CacheStore: it stores a JSON-encoded
// entry, failing without storing anything when the bytes do not decode
// as a point result.
func (c *Cache) PutLocal(key string, data []byte) error {
	e, err := NewEntry(data)
	if err != nil {
		return err
	}
	c.Put(key, e)
	return nil
}

// shouldWriteDisk reports whether this Put should attempt the disk
// layer: always when healthy, and once per reprobeInterval while
// degraded (the write doubling as the recovery probe).
func (c *Cache) shouldWriteDisk() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.degraded {
		return true
	}
	if time.Now().Before(c.nextProbe) {
		return false
	}
	// Claim the probe slot so concurrent Puts don't all probe at once.
	c.nextProbe = time.Now().Add(reprobeInterval)
	return true
}

// writeDisk publishes one entry crash-safely: write to a temp file,
// fsync it, rename into place, then fsync the directory so the rename
// itself survives a crash. Without the first fsync a crash can leave a
// renamed-but-empty entry — exactly the torn write the corrupt-entry
// recovery in Get exists to catch, but recovery costs a re-simulation
// per torn entry; durability here is cheaper.
func (c *Cache) writeDisk(key string, data []byte) error {
	p := c.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	if c.faults != nil {
		if trunc, fail := c.faults.WriteFault(key); fail {
			return fmt.Errorf("engine: injected write fault for %s", key)
		} else if trunc > 0 && trunc < len(data) {
			// A torn write that still gets published: bypass the
			// durability protocol on purpose to exercise the
			// corrupt-entry recovery backstop.
			return os.WriteFile(p, data[:trunc], 0o644)
		}
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), key+".tmp*")
	if err != nil {
		return err
	}
	if _, err = tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if c.faults != nil && c.faults.RenameFault(key) {
		os.Remove(tmp.Name())
		return fmt.Errorf("engine: injected rename fault for %s", key)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// Sync the directory entry; failure here is not worth failing the
	// Put over (the entry is published, only its crash-durability is in
	// doubt), so best-effort.
	if d, err := os.Open(filepath.Dir(p)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Stats returns a snapshot of the activity counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.MemEntries = len(c.mem)
	return s
}

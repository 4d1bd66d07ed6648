package cluster

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
)

// PeerCacheOptions tunes a PeerCache.
type PeerCacheOptions struct {
	// FanOut is the maximum number of peers consulted per local miss,
	// walked in the key's ring-ownership order. ≤0 selects 2: the owner
	// plus one successor, which covers the replication pair an entry
	// lands on (the simulating node and its pushed ring owner).
	FanOut int
	// PushQueue bounds the asynchronous owner-replication queue; full
	// means drop (and count). ≤0 selects 1024.
	PushQueue int
}

// pushWorkers is how many goroutines drain the replication queue.
const pushWorkers = 2

// PeerCache is the cluster tier of the result cache: an
// engine.CacheBackend that serves Gets from the local two-layer cache
// first and fills misses from peer vosd nodes' cache-entry endpoints,
// write-through into the local layers. A fetched entry is decoded once,
// when it is filled, and one that does not decode as a point result
// counts as a peer error, never as a hit. Puts land locally and are
// replicated asynchronously to the entry's ring owner, so the owner —
// the node every peer's fan-out consults first — converges on a full
// copy of its share of the key space no matter which node simulated.
//
// It doubles as the httpapi.CacheStore behind /v1/cache/entries: the
// Local methods bypass the peer tier, which is what keeps two nodes'
// miss fan-outs from recursing into each other.
type PeerCache struct {
	local  *engine.Cache
	ring   *Ring
	peers  *peerSet
	fanOut int

	// ctx detaches in-flight fetches and pushes on Close.
	ctx    context.Context
	cancel context.CancelFunc

	peerHits, peerMisses, peerErrors atomic.Uint64
	peerPushes, peerPushDrops        atomic.Uint64

	pushCh    chan pushJob
	pushWg    sync.WaitGroup
	closeOnce sync.Once
}

type pushJob struct {
	owner string
	key   string
	data  []byte
}

var _ engine.CacheBackend = (*PeerCache)(nil)

// NewPeerCache wraps the local cache with the peer tier.
func NewPeerCache(local *engine.Cache, ring *Ring, peers *peerSet, opts PeerCacheOptions) *PeerCache {
	if opts.FanOut <= 0 {
		opts.FanOut = 2
	}
	if opts.PushQueue <= 0 {
		opts.PushQueue = 1024
	}
	ctx, cancel := context.WithCancel(context.Background())
	pc := &PeerCache{
		local:  local,
		ring:   ring,
		peers:  peers,
		fanOut: opts.FanOut,
		ctx:    ctx,
		cancel: cancel,
		pushCh: make(chan pushJob, opts.PushQueue),
	}
	for i := 0; i < pushWorkers; i++ {
		pc.pushWg.Add(1)
		go pc.pushLoop()
	}
	return pc
}

// Close stops the replication workers, dropping whatever is still
// queued — replication is an optimization, not durability.
func (pc *PeerCache) Close() {
	pc.closeOnce.Do(func() {
		pc.cancel()
		close(pc.pushCh)
		pc.pushWg.Wait()
	})
}

// Get implements engine.CacheBackend: local layers first, then up to
// FanOut live peers in the key's ring-ownership order. A peer hit is
// written through to the local layers, so each key is fetched over the
// network at most once per node. Peer fetches run under the caller's
// context joined with the cache's lifetime, so a sweep hitting its
// deadline (or being canceled) abandons its network fetches instead of
// riding out the full per-fetch timeout against a slow peer.
func (pc *PeerCache) Get(ctx context.Context, key string) (*engine.Entry, bool) {
	if e, ok := pc.local.Get(ctx, key); ok {
		return e, true
	}
	consulted := 0
	for _, member := range pc.ring.Sequence(key) {
		if ctx.Err() != nil {
			break
		}
		if consulted >= pc.fanOut {
			break
		}
		p := pc.peers.get(member)
		if p == nil || !p.br.allow() { // self, or a peer its breaker holds dead
			continue
		}
		consulted++
		// Join the caller's context with the cache's lifetime: either
		// cancels the fetch.
		fctx, cancel := context.WithCancel(ctx)
		stop := context.AfterFunc(pc.ctx, cancel)
		data, found, err := p.fetchEntry(fctx, key)
		stop()
		cancel()
		if err != nil {
			if ctx.Err() != nil {
				// The caller gave up, the peer didn't fail: no breaker
				// strike, no error count.
				break
			}
			pc.peerErrors.Add(1)
			p.br.failure(err)
			continue
		}
		p.br.success()
		if !found {
			continue
		}
		// Trust nothing that crossed the network into the
		// content-addressed store: what does not decode as a point is
		// the peer's fault.
		e, err := engine.NewEntry(data)
		if err != nil {
			pc.peerErrors.Add(1)
			continue
		}
		pc.local.Put(key, e)
		pc.peerHits.Add(1)
		return e, true
	}
	if consulted > 0 {
		pc.peerMisses.Add(1)
	}
	return nil, false
}

// Peek implements engine.CacheBackend: the local memory layer only.
func (pc *PeerCache) Peek(key string) (*engine.Entry, bool) { return pc.local.Peek(key) }

// Put implements engine.CacheBackend: store locally, then replicate to
// the key's ring owner asynchronously (simulation results must never
// wait on a peer's disk).
func (pc *PeerCache) Put(key string, e *engine.Entry) {
	pc.local.Put(key, e)
	owner := pc.ring.Owner(key)
	if owner == "" || owner == pc.peers.self {
		return
	}
	select {
	case pc.pushCh <- pushJob{owner: owner, key: key, data: e.Bytes()}:
	default:
		pc.peerPushDrops.Add(1)
	}
}

// Stats implements engine.CacheBackend: the local layers' counters with
// the peer tier's merged in, plus the replication queue's backlog
// gauges (current depth against capacity) so push backpressure is
// visible before it turns into PeerPushDrops.
func (pc *PeerCache) Stats() engine.CacheStats {
	s := pc.local.Stats()
	s.PeerHits = pc.peerHits.Load()
	s.PeerMisses = pc.peerMisses.Load()
	s.PeerErrors = pc.peerErrors.Load()
	s.PeerPushes = pc.peerPushes.Load()
	s.PeerPushDrops = pc.peerPushDrops.Load()
	s.PeerPushQueueDepth = len(pc.pushCh)
	s.PeerPushQueueCap = cap(pc.pushCh)
	return s
}

// GetLocal implements httpapi.CacheStore: the peer-facing read path,
// local layers only.
func (pc *PeerCache) GetLocal(key string) ([]byte, bool) { return pc.local.GetLocal(key) }

// PutLocal implements httpapi.CacheStore: the peer-facing write path,
// local layers only — a pushed entry must not be re-replicated.
func (pc *PeerCache) PutLocal(key string, data []byte) error { return pc.local.PutLocal(key, data) }

// pushLoop drains the replication queue.
func (pc *PeerCache) pushLoop() {
	defer pc.pushWg.Done()
	for job := range pc.pushCh {
		p := pc.peers.get(job.owner)
		if p == nil || !p.br.allow() {
			pc.peerPushDrops.Add(1)
			continue
		}
		if err := p.pushEntry(pc.ctx, job.key, job.data); err != nil {
			p.br.failure(err)
			pc.peerPushDrops.Add(1)
			continue
		}
		p.br.success()
		pc.peerPushes.Add(1)
	}
}

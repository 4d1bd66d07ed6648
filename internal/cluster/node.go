package cluster

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/httpapi"
)

// NodeOptions configures one cluster member.
type NodeOptions struct {
	// Advertise is the URL this node is reachable at by its peers
	// (e.g. "http://10.0.0.5:8420"); required when Peers is non-empty.
	Advertise string
	// Peers are the other members' advertise URLs. Empty means a
	// single-node daemon: no ring, no peer tiers, plain engine.
	Peers []string
	// Workers is the engine pool size; ≤0 means NumCPU.
	Workers int
	// CacheDir roots the node's on-disk cache layer; empty keeps the
	// local cache memory-only.
	CacheDir string
	// JournalDir enables the engine's write-ahead journal there: jobs
	// survive a crash or restart of this node — finished ones stay
	// listable, unfinished ones are re-adopted and resumed against the
	// cache. Empty keeps the job registries memory-only.
	JournalDir string
	// ModelDir, when set, persists every error model the engine's
	// calibrator trains as JSON artifacts in the cmd/vosmodel store
	// format (export only — serving never reads it back).
	ModelDir string
	// Replicas is the ring's virtual-node count per member; ≤0 selects
	// the default.
	Replicas int
	// CacheFanOut caps peers consulted per cache miss; ≤0 selects the
	// PeerCacheOptions default.
	CacheFanOut int
	// TenantQuota caps in-flight jobs (sweeps and Monte Carlo jobs
	// together) per tenant; ≤0 disables. Shard sub-jobs (the
	// cluster-internal tenant) are exempt.
	TenantQuota int
	// AccessLog, when non-nil, receives one JSON request-log line per
	// completed request (httpapi.AccessEntry).
	AccessLog io.Writer
	// Transport overrides the HTTP transport for all outbound peer
	// traffic (cache fills and shard sub-sweeps); nil means the default.
	// internal/chaos wraps it to inject client-side faults.
	Transport http.RoundTripper
	// Middleware, when non-nil, wraps the node's HTTP handler outermost
	// — in front of the access logger — so injected server-side faults
	// look like network damage to clients. internal/chaos provides one.
	Middleware func(http.Handler) http.Handler
	// CacheFaults, when non-nil, is installed on the local disk cache's
	// filesystem operations — and, when JournalDir is set, on the
	// journal's write path: one injector drives both durability seams.
	// internal/chaos provides one.
	CacheFaults engine.CacheFaultInjector
	// ShardCallTimeout bounds each unary shard RPC (submit, status
	// poll, result fetch) against a peer; ≤0 selects the planner
	// default. ShardStallTimeout bounds how long a dispatched shard may
	// go without completing any point before the planner declares it
	// stalled, cancels it and re-routes; ≤0 selects the default.
	ShardCallTimeout  time.Duration
	ShardStallTimeout time.Duration
}

// Node is one assembled cluster member: local cache, peer cache tier,
// sharding planner, engine and HTTP handler wired together. A Node does
// not listen; the caller mounts Handler on whatever server it runs
// (cmd/vosd, an httptest server, StartLocal).
type Node struct {
	advertise string
	ring      *Ring
	peers     *peerSet
	pc        *PeerCache
	eng       *engine.Engine
	handler   http.Handler
}

// NewNode assembles a member from its options. With no peers it
// degenerates to a plain single-node daemon — same handler surface,
// no ring or peer tiers.
func NewNode(opts NodeOptions) (*Node, error) {
	clustered := len(opts.Peers) > 0
	if clustered && opts.Advertise == "" {
		return nil, fmt.Errorf("cluster: a node with peers needs an advertise URL")
	}
	local, err := engine.NewCache(opts.CacheDir)
	if err != nil {
		return nil, err
	}
	if opts.CacheFaults != nil {
		local.SetFaults(opts.CacheFaults)
	}
	n := &Node{advertise: opts.Advertise}
	var store httpapi.CacheStore
	engOpts := engine.Options{Workers: opts.Workers, ModelDir: opts.ModelDir, JournalDir: opts.JournalDir}
	if opts.JournalDir != "" && opts.CacheFaults != nil {
		engOpts.JournalFaults = opts.CacheFaults
	}
	if clustered {
		members := append(append([]string(nil), opts.Peers...), opts.Advertise)
		n.ring = NewRing(members, opts.Replicas)
		n.peers, err = newPeerSet(opts.Advertise, members, opts.Transport)
		if err != nil {
			return nil, err
		}
		n.pc = NewPeerCache(local, n.ring, n.peers, PeerCacheOptions{FanOut: opts.CacheFanOut})
		store = n.pc
		engOpts.Backend = n.pc
		engOpts.Sharder = NewPlanner(opts.Advertise, n.ring, n.peers, PlannerOptions{
			CallTimeout:  opts.ShardCallTimeout,
			StallTimeout: opts.ShardStallTimeout,
		})
	} else {
		store = local
		engOpts.Backend = local
	}
	n.eng, err = engine.New(engOpts)
	if err != nil {
		if n.pc != nil {
			n.pc.Close()
		}
		return nil, err
	}
	httpOpts := []httpapi.Option{httpapi.WithCacheStore(store)}
	if clustered {
		httpOpts = append(httpOpts, httpapi.WithClusterStatus(func() any { return n.Status() }))
	}
	if opts.TenantQuota > 0 {
		httpOpts = append(httpOpts, httpapi.WithTenantQuota(opts.TenantQuota, shardTenant))
	}
	n.handler = httpapi.New(n.eng, httpOpts...)
	if opts.AccessLog != nil {
		n.handler = httpapi.AccessLog(n.handler, opts.AccessLog, n.eng.CacheStats)
	}
	if opts.Middleware != nil {
		n.handler = opts.Middleware(n.handler)
	}
	return n, nil
}

// Handler returns the node's HTTP surface (the httpapi routes, wrapped
// in the access logger when one was configured).
func (n *Node) Handler() http.Handler { return n.handler }

// Engine returns the node's engine (tests and embedders inspect stats
// and submit through it directly).
func (n *Node) Engine() *engine.Engine { return n.eng }

// Close shuts the engine down (waiting for sweeps to stop) and then
// the peer-cache replication workers.
func (n *Node) Close() {
	n.eng.Close()
	if n.pc != nil {
		n.pc.Close()
	}
}

// Status is the /v1/cluster/status body: this node's identity, the
// ring membership, and its view of every peer's health.
type Status struct {
	Self  string       `json:"self"`
	Ring  []string     `json:"ring"`
	Peers []PeerStatus `json:"peers"`
}

// PeerStatus is one peer's entry in Status.
type PeerStatus struct {
	URL     string        `json:"url"`
	Breaker BreakerStatus `json:"breaker"`
}

// Status returns this node's cluster snapshot; zero value when the
// node is not clustered.
func (n *Node) Status() Status {
	if n.ring == nil {
		return Status{Self: n.advertise}
	}
	st := Status{Self: n.advertise, Ring: n.ring.Nodes()}
	for _, u := range n.peers.urls() {
		st.Peers = append(st.Peers, PeerStatus{URL: u, Breaker: n.peers.get(u).br.snapshot()})
	}
	return st
}

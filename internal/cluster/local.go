package cluster

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"
)

// LocalOptions configures StartLocal.
type LocalOptions struct {
	// Workers is each node's engine pool size; ≤0 means NumCPU.
	Workers int
	// CacheRoot, when non-empty, gives each node an on-disk cache layer
	// under CacheRoot/node<i>; empty keeps every node memory-only.
	CacheRoot string
	// JournalRoot, when non-empty, gives each node a write-ahead journal
	// under JournalRoot/node<i>, so a killed-and-restarted member
	// recovers its job registries (see engine.Options.JournalDir).
	JournalRoot string
	// CacheFanOut, TenantQuota and AccessLog are forwarded to every
	// node's NodeOptions.
	CacheFanOut int
	TenantQuota int
	AccessLog   io.Writer
	// PerNode, when non-nil, is called with each member's assembled
	// NodeOptions before the node is built — the hook the chaos soak
	// uses to install fault transports and middleware on a subset of
	// the fleet (e.g. every node but the coordinator).
	PerNode func(i int, opts *NodeOptions)
}

// LocalCluster is an in-process cluster of n real vosd nodes, each
// serving its full HTTP surface on a 127.0.0.1 listener — the harness
// behind the cluster tests, cmd/vosload's self-contained mode and the
// serving-path benchmark. The nodes talk to each other over real TCP,
// so everything the fabric does in production (peer cache fills, shard
// dispatch, stream drops on kill) happens here too.
type LocalCluster struct {
	members []*Member
}

// Member is one node of a LocalCluster.
type Member struct {
	URL  string
	Node *Node

	opts   NodeOptions // for Restart: rebuild the node exactly as booted
	srv    *http.Server
	ln     net.Listener
	killed bool
	mu     sync.Mutex
}

// readyTimeout bounds how long StartLocal and Restart wait for members
// to finish replaying their journals.
const readyTimeout = time.Minute

// StartLocal boots an n-node cluster on loopback listeners and returns
// once every node is serving: listening, with its journal (if any)
// replayed, so a submission right after StartLocal is never refused as
// not ready. A member still replaying after readyTimeout fails the boot.
func StartLocal(n int, opts LocalOptions) (*LocalCluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", n)
	}
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	c := &LocalCluster{}
	for i := 0; i < n; i++ {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		cacheDir := ""
		if opts.CacheRoot != "" {
			cacheDir = filepath.Join(opts.CacheRoot, fmt.Sprintf("node%d", i))
		}
		journalDir := ""
		if opts.JournalRoot != "" {
			journalDir = filepath.Join(opts.JournalRoot, fmt.Sprintf("node%d", i))
		}
		nodeOpts := NodeOptions{
			Advertise:   urls[i],
			Peers:       peers,
			Workers:     opts.Workers,
			CacheDir:    cacheDir,
			JournalDir:  journalDir,
			CacheFanOut: opts.CacheFanOut,
			TenantQuota: opts.TenantQuota,
			AccessLog:   opts.AccessLog,
		}
		if opts.PerNode != nil {
			opts.PerNode(i, &nodeOpts)
		}
		node, err := NewNode(nodeOpts)
		if err != nil {
			c.Close()
			for _, l := range lns[i:] {
				l.Close()
			}
			return nil, err
		}
		m := &Member{URL: urls[i], Node: node, opts: nodeOpts, ln: lns[i], srv: &http.Server{Handler: node.Handler()}}
		c.members = append(c.members, m)
		go m.srv.Serve(m.ln)
	}
	if err := awaitReady(c.members); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// awaitReady waits, for at most readyTimeout in all, until every member's
// engine has replayed its journal.
func awaitReady(members []*Member) error {
	ctx, cancel := context.WithTimeout(context.Background(), readyTimeout)
	defer cancel()
	for _, m := range members {
		if err := m.Node.Engine().WaitReady(ctx); err != nil {
			return fmt.Errorf("cluster: node %s not ready: %w", m.URL, err)
		}
	}
	return nil
}

// Members returns the cluster's nodes in boot order.
func (c *LocalCluster) Members() []*Member { return c.members }

// URLs returns every member's base URL in boot order.
func (c *LocalCluster) URLs() []string {
	out := make([]string, len(c.members))
	for i, m := range c.members {
		out[i] = m.URL
	}
	return out
}

// Kill hard-stops member i: the server closes immediately (in-flight
// connections — event streams included — are severed, as a crashed
// process would sever them) and the node shuts down. Idempotent. The
// error return is always nil today; the signature matches the chaos
// layer's KillRestarter seam.
func (c *LocalCluster) Kill(i int) error {
	m := c.members[i]
	m.mu.Lock()
	if m.killed {
		m.mu.Unlock()
		return nil
	}
	m.killed = true
	m.mu.Unlock()
	m.srv.Close()
	m.Node.Close()
	return nil
}

// Restart boots member i again on its original address with a fresh
// Node built from the same options it was born with — the process
// restart of a crashed daemon. The node rejoins the ring (membership is
// static; peers' breakers re-admit it via their half-open probes) and,
// when a cache root was configured, recovers its on-disk cache layer.
// Like StartLocal, it returns once the node has replayed its journal;
// a node not ready within readyTimeout is stopped again and reported.
// No-op if the member is running.
func (c *LocalCluster) Restart(i int) error {
	m := c.members[i]
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.killed {
		return nil
	}
	// Rebind the advertised address. The kernel can hold the port
	// briefly after the old listener closes; retry over a short window.
	addr := m.ln.Addr().String()
	var ln net.Listener
	var err error
	for deadline := time.Now().Add(5 * time.Second); ; {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: restart node %d: rebind %s: %w", i, addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	node, err := NewNode(m.opts)
	if err != nil {
		ln.Close()
		return fmt.Errorf("cluster: restart node %d: %w", i, err)
	}
	m.Node = node
	m.ln = ln
	m.srv = &http.Server{Handler: node.Handler()}
	go m.srv.Serve(ln)
	if err := awaitReady([]*Member{m}); err != nil {
		m.srv.Close()
		node.Close()
		return fmt.Errorf("cluster: restart node %d: %w", i, err)
	}
	m.killed = false
	return nil
}

// Close kills every member still running.
func (c *LocalCluster) Close() {
	for i := range c.members {
		c.Kill(i)
	}
}

package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/charz"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/triad"
	"repro/vos"
)

// Planner is the engine's Sharder: it routes each electrical point
// group of a declarative sweep to the cluster member owning it on the
// ring, dispatches every remote member's share as one explicit-triad
// sub-sweep through the vos SDK, and folds the shard event streams back
// into the coordinating sweep's yield funnel. Groups the local node
// owns — or inherits because every remote candidate is dead — run on
// the local engine via the runLocal callback.
//
// The shard key of a group hashes the canonical cache keys of its
// points, so every member routes the same group to the same owner with
// no coordination traffic, and identical sweeps submitted to different
// members meet in the owner's singleflight: ring ownership is the
// fleet-level request coalescing tier.
type Planner struct {
	self         string
	ring         *Ring
	peers        *peerSet
	callTimeout  time.Duration
	stallTimeout time.Duration
}

var _ engine.Sharder = (*Planner)(nil)

// PlannerOptions tunes the planner's failure detection.
type PlannerOptions struct {
	// CallTimeout bounds each unary shard RPC (submit, status poll,
	// result fetch); ≤0 selects 15s. Event streams are not bounded by
	// it — a healthy shard streams for as long as the simulation runs —
	// but they are watched by StallTimeout.
	CallTimeout time.Duration
	// StallTimeout bounds how long a dispatched shard may go without
	// making observable progress (an event on the stream; a Completed
	// advance in the polling salvage path) before the planner declares
	// it stalled, cancels it and re-routes the remainder. ≤0 selects
	// 2 minutes — generous against slow simulations, finite against a
	// slow-but-alive peer that would otherwise wedge the fan-out
	// forever.
	StallTimeout time.Duration
}

// NewPlanner returns a Planner for the member self on the given ring.
func NewPlanner(self string, ring *Ring, peers *peerSet, opts PlannerOptions) *Planner {
	if opts.CallTimeout <= 0 {
		opts.CallTimeout = 15 * time.Second
	}
	if opts.StallTimeout <= 0 {
		opts.StallTimeout = 2 * time.Minute
	}
	return &Planner{
		self: self, ring: ring, peers: peers,
		callTimeout: opts.CallTimeout, stallTimeout: opts.StallTimeout,
	}
}

// shardGroup is one electrical group's routing state: the triad indices
// still to be yielded, the group's ring key, and the members already
// tried (and failed) for it.
type shardGroup struct {
	idxs  []int
	key   string
	tried map[string]bool
}

// RunOperator implements engine.Sharder. It runs rounds until every
// point is yielded: each round routes the outstanding groups (first
// untried live member of each group's ownership sequence; the local
// engine for our own share), runs all shards and local groups
// concurrently, and carries whatever a failed shard left un-yielded
// into the next round — re-routed to the next candidate, with the local
// engine as the final fallback. Local execution errors are terminal:
// once a group reaches the local engine there is nobody left to blame.
func (p *Planner) RunOperator(ctx context.Context, plan *engine.OperatorPlan, groups [][]int,
	runLocal func(idxs []int) error, yield func(ti int, ps engine.PointSummary)) error {
	// safeYield makes re-dispatch idempotent: a shard whose stream
	// dropped after yielding a point must not yield it again from the
	// salvage or failover path.
	var ymu sync.Mutex
	yielded := make(map[int]bool, len(plan.Triads))
	safeYield := func(ti int, ps engine.PointSummary) {
		ymu.Lock()
		if yielded[ti] {
			ymu.Unlock()
			return
		}
		yielded[ti] = true
		ymu.Unlock()
		yield(ti, ps)
	}

	work := make([]*shardGroup, len(groups))
	for i, idxs := range groups {
		work[i] = &shardGroup{
			idxs:  append([]int(nil), idxs...),
			key:   groupKey(plan, idxs),
			tried: make(map[string]bool),
		}
	}

	for len(work) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		var local []*shardGroup
		remote := make(map[string][]*shardGroup)
		for _, g := range work {
			if target := p.route(g); target == "" {
				local = append(local, g)
			} else {
				g.tried[target] = true
				remote[target] = append(remote[target], g)
			}
		}

		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		var retry []*shardGroup
		fail := func(err error) {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
		for _, g := range local {
			wg.Add(1)
			go func(g *shardGroup) {
				defer wg.Done()
				if err := runLocal(g.idxs); err != nil {
					fail(err)
				}
			}(g)
		}
		for member, gs := range remote {
			wg.Add(1)
			go func(member string, gs []*shardGroup) {
				defer wg.Done()
				p.dispatch(ctx, plan, member, gs, safeYield)
				mu.Lock()
				for _, g := range gs {
					if len(g.idxs) > 0 {
						retry = append(retry, g)
					}
				}
				mu.Unlock()
			}(member, gs)
		}
		wg.Wait()
		if firstErr != nil {
			return firstErr
		}
		work = retry
	}
	return nil
}

// route picks the member to run a group this round: the first node of
// the group's ownership sequence that is untried and breaker-live.
// Reaching self — or exhausting the sequence — means the local engine.
func (p *Planner) route(g *shardGroup) string {
	for _, member := range p.ring.Sequence(g.key) {
		if member == p.self {
			return ""
		}
		if g.tried[member] {
			continue
		}
		if pr := p.peers.get(member); pr != nil && pr.br.allow() {
			return member
		}
	}
	return ""
}

// dispatch runs one member's share of the operator — all its groups in
// one explicit-triad sub-sweep — yielding each point as its shard event
// streams in. On return, every group's idxs holds exactly the indices
// this dispatch did not yield; failures are recorded on the member's
// breaker and surface as a non-empty remainder, not an error — the
// caller's next round re-routes it.
func (p *Planner) dispatch(ctx context.Context, plan *engine.OperatorPlan, member string,
	gs []*shardGroup, yield func(ti int, ps engine.PointSummary)) {
	pr := p.peers.get(member)
	if pr == nil {
		return
	}
	// pending maps each triad value to the plan indices awaiting it; a
	// plan listing one triad twice gets two shard points back and pops
	// one index per event.
	pending := make(map[triad.Triad][]int)
	var trs []vos.Triad
	for _, g := range gs {
		for _, ti := range g.idxs {
			tr := plan.Triads[ti]
			pending[tr] = append(pending[tr], ti)
			trs = append(trs, vos.Triad(tr))
		}
	}
	onPoint := func(pt *vos.Point) {
		tr := triad.Triad(pt.Triad)
		idxs := pending[tr]
		if len(idxs) == 0 {
			return // not one of ours (or a duplicate delivery)
		}
		pending[tr] = idxs[1:]
		yield(idxs[0], pointSummary(pt))
	}
	_ = p.runShardSweep(ctx, pr, plan.Config, trs, onPoint) // on failure its points stay pending
	remaining := make(map[int]bool)
	for _, idxs := range pending {
		for _, ti := range idxs {
			remaining[ti] = true
		}
	}
	for _, g := range gs {
		kept := g.idxs[:0]
		for _, ti := range g.idxs {
			if remaining[ti] {
				kept = append(kept, ti)
			}
		}
		g.idxs = kept
	}
}

// runShardSweep runs one explicit-triad sub-sweep on the peer, calling
// onPoint for every point event it streams — or, when the stream was
// lost, for every point of its fetched results.
func (p *Planner) runShardSweep(ctx context.Context, pr *peer, cfg charz.Config,
	trs []vos.Triad, onPoint func(*vos.Point)) error {
	spec := shardSpec(cfg, trs).Lease(p.shardLease())
	return followShard(ctx, p, pr, shardCalls[vos.Result, vos.Event]{
		kind:    "shard",
		submit:  func(ctx context.Context) (string, error) { return pr.remote.Submit(ctx, spec) },
		events:  pr.remote.Events,
		status:  pr.remote.Status,
		results: pr.remote.Results,
		cancel:  pr.remote.Cancel,
		event: func(ev vos.Event) (string, string) {
			if ev.Type == vos.EventPoint && ev.Point != nil {
				onPoint(ev.Point)
			}
			return ev.Type, ev.Error
		},
		state: func(r *vos.Result) (string, string, vos.Progress) { return r.Status, r.Error, r.Progress },
		fetched: func(_ string, r *vos.Result) error {
			for i := range r.Operators {
				for j := range r.Operators[i].Points {
					onPoint(&r.Operators[i].Points[j])
				}
			}
			return nil
		},
	})
}

// shardCalls is one job kind's share of a shard sub-job: the peer calls
// that drive it and readers for its wire types (S the snapshot, E the
// event).
type shardCalls[S, E any] struct {
	// kind names the sub-job in errors.
	kind    string
	submit  func(context.Context) (string, error)
	events  func(context.Context, string) (<-chan E, error)
	status  func(context.Context, string) (*S, error)
	results func(context.Context, string) (*S, error)
	cancel  func(context.Context, string) error
	// event hands an event's point, if any, to the caller and returns
	// the event's type and failure message — no type for a done event
	// that arrived without every point, which only a malformed peer
	// stream sends (streams are lossless) and which leaves the fetch to
	// the salvage. state reads a snapshot's status, failure message and
	// progress; fetched takes the results a salvage fetched.
	event   func(E) (typ, msg string)
	state   func(*S) (status, msg string, p vos.Progress)
	fetched func(id string, full *S) error
}

// followShard submits one sub-job to the peer and follows it to
// completion: the event stream while it flows, then — when the stream
// ends without a terminal event (the connection dropped, not the job)
// or stalls — the polling salvage, before the peer is declared failed:
// the shard may have finished fine. A sub-job the salvage finds done has
// its results fetched.
//
// Every unary RPC is bounded by the planner's call timeout, and both
// the stream and the polling salvage are bounded by the stall timeout:
// a shard that stops producing observable progress is canceled and the
// error re-routes its work — a slow-but-alive peer must degrade into a
// failover, never an indefinite wedge of the whole fan-out. The outcome
// is recorded on the peer's breaker.
func followShard[S, E any](ctx context.Context, p *Planner, pr *peer, c shardCalls[S, E]) (err error) {
	defer func() {
		if err != nil {
			pr.br.failure(err)
		} else {
			pr.br.success()
		}
	}()
	sctx, cancel := context.WithTimeout(ctx, p.callTimeout)
	id, err := c.submit(sctx)
	cancel()
	if err != nil {
		return err
	}
	// On any non-clean exit — coordinator death or a declared stall —
	// stop the shard too: an orphaned sub-job would keep burning the
	// peer's pool.
	clean := false
	defer func() {
		if !clean {
			cctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			c.cancel(cctx, id)
			cancel()
		}
	}()
	failed := func(status, msg string) error {
		return fmt.Errorf("cluster: %s %s on %s: %s: %s", c.kind, id, pr.url, status, msg)
	}

	// Stream under its own cancel so an idle-stream stall can abandon
	// the connection without killing the coordinating job.
	ectx, ecancel := context.WithCancel(ctx)
	defer ecancel()
	if ch, err := c.events(ectx, id); err == nil {
		idle := time.NewTimer(p.stallTimeout)
		defer idle.Stop()
	stream:
		for {
			select {
			case ev, ok := <-ch:
				if !ok {
					break stream // dropped stream: try the polling salvage
				}
				if !idle.Stop() {
					<-idle.C
				}
				idle.Reset(p.stallTimeout)
				switch typ, msg := c.event(ev); typ {
				case vos.EventDone:
					clean = true
					return nil
				case vos.EventFailed, vos.EventCanceled:
					return failed(typ, msg)
				}
			case <-idle.C:
				// No event within the stall budget. Abandon the stream
				// and let the polling salvage decide whether the job
				// itself (not just the connection) is stuck.
				ecancel()
				break stream
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}

	// Polling salvage: poll status with bounded calls, requiring
	// Completed to keep advancing within each stall window.
	const pollInterval = 250 * time.Millisecond
	lastCompleted, stallDeadline := -1, time.Now().Add(p.stallTimeout)
	for {
		sctx, cancel := context.WithTimeout(ctx, p.callTimeout)
		res, err := c.status(sctx, id)
		cancel()
		if err != nil {
			return err
		}
		status, msg, prog := c.state(res)
		if status == vos.StatusDone {
			break
		}
		if status == vos.StatusFailed || status == vos.StatusCanceled {
			return failed(status, msg)
		}
		if prog.Completed > lastCompleted {
			lastCompleted, stallDeadline = prog.Completed, time.Now().Add(p.stallTimeout)
		} else if time.Now().After(stallDeadline) {
			return fmt.Errorf("cluster: %s %s on %s stalled at %d/%d points for %v",
				c.kind, id, pr.url, prog.Completed, prog.TotalPoints, p.stallTimeout)
		}
		select {
		case <-time.After(pollInterval):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	rctx, rcancel := context.WithTimeout(ctx, p.callTimeout)
	full, err := c.results(rctx, id)
	rcancel()
	if err != nil {
		return err
	}
	if err := c.fetched(id, full); err != nil {
		return err
	}
	clean = true
	return nil
}

// shardLease is the coordinator lease stamped on every shard sub-job:
// as long as the coordinator is alive it holds an open event stream (or
// polls status) against the shard, which counts as observation; once
// the coordinator dies, the peer cancels the orphan after this window.
// Tied to the stall timeout — the same horizon after which the
// coordinator itself would have written the shard off.
func (p *Planner) shardLease() time.Duration {
	if p.stallTimeout < time.Second {
		return time.Second
	}
	return p.stallTimeout
}

// shardSpec reproduces one operator's canonical configuration as an
// explicit-triad Spec. Engine requests can never set process or library
// overrides, so rebuilding from the canonical Config round-trips to the
// same canonical form — and therefore the same cache keys — on the
// shard node.
func shardSpec(cfg charz.Config, trs []vos.Triad) *vos.Spec {
	return vos.NewSpec().
		Arches(cfg.Arch.String()).
		Widths(cfg.Width).
		Patterns(cfg.Patterns).
		Seed(cfg.Seed).
		PropagateP(cfg.PropagateP).
		Backend(cfg.Backend.String()).
		Streaming(cfg.Streaming).
		Triads(trs...)
}

// groupKey is a group's position on the ring: a hash of the sorted
// canonical cache keys of its points. Content-derived, so every member
// computes the same owner for the same group without gossip.
func groupKey(plan *engine.OperatorPlan, idxs []int) string {
	keys := make([]string, len(idxs))
	for j, ti := range idxs {
		keys[j] = plan.Keys[ti]
	}
	sort.Strings(keys)
	sum := sha256.Sum256([]byte(strings.Join(keys, "\n")))
	return hex.EncodeToString(sum[:])
}

// pointSummary converts a shard's point into the engine's type: the two
// share their shape field for field, nested types included. It shares
// the point's slices and fidelity report, which the caller hands over. A
// streamed sweep point's Efficiency is whatever the shard knew (zero
// mid-stream) and is recomputed by the coordinator's fold over the full
// operator.
func pointSummary(pt *vos.Point) engine.PointSummary {
	return engine.PointSummary{
		Triad:         triad.Triad(pt.Triad),
		Stats:         metrics.ErrorStats(pt.Stats),
		BER:           pt.BER,
		WER:           pt.WER,
		PerBit:        pt.PerBit,
		EnergyPerOpFJ: pt.EnergyPerOpFJ,
		LateFraction:  pt.LateFraction,
		Efficiency:    pt.Efficiency,
		FromCache:     pt.FromCache,
		Fidelity:      (*core.Fidelity)(pt.Fidelity),
	}
}

// reencode converts between the SDK's and the engine's types through
// their shared JSON shape.
func reencode(in, out any) error {
	data, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

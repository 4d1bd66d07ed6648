package cluster

// Monte Carlo sharding: the Planner's RunMCPoint half of
// engine.Sharder. Where sweep sharding routes whole electrical point groups to their
// ring owners (cache coalescing), Monte Carlo sharding splits one
// point's rep range [0, reps) into contiguous sub-ranges across the
// live membership (throughput scaling): rep seeds derive from the job
// seed and rep index only, so any node can compute any range and the
// coordinator's in-order merge is byte-identical to a local run.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/triad"
	"repro/vos"
)

// mcPointKey is a Monte Carlo cell's position on the ring: a
// content-derived hash of the job parameters that define its results.
// It only needs to be deterministic across members — rep ranges are
// recomputed, not cached, so the key spreads load rather than coalesces
// requests.
func mcPointKey(req engine.MCRequest, kernel string, tr triad.Triad) string {
	material := fmt.Sprintf("mc|%s|%s|%d|%d|%s", req.Arch, kernel, req.Seed, req.Samples, tr.Label())
	sum := sha256.Sum256([]byte(material))
	return hex.EncodeToString(sum[:])
}

// RunMCPoint implements engine.Sharder: split the point's reps into
// one contiguous range per live member (ring-ownership order, local
// node always included), run the ranges concurrently — remote ranges as
// rep-range sub-jobs through the vos SDK, with the local engine as the
// per-range fallback when a peer fails — and merge the partials in rep
// order.
func (p *Planner) RunMCPoint(ctx context.Context, req engine.MCRequest, kernel string, tr triad.Triad,
	reps int, runLocal func(lo, hi int) (*engine.MCPoint, error)) (*engine.MCPoint, error) {
	if reps < 1 {
		return nil, fmt.Errorf("cluster: mc point with %d reps", reps)
	}
	// Candidate members in the cell's ownership order; self is always a
	// candidate, so a fully partitioned node still completes alone.
	var members []string
	seen := map[string]bool{}
	for _, m := range p.ring.Sequence(mcPointKey(req, kernel, tr)) {
		if seen[m] {
			continue
		}
		seen[m] = true
		if m == p.self {
			members = append(members, m)
			continue
		}
		if pr := p.peers.get(m); pr != nil && pr.br.allow() {
			members = append(members, m)
		}
	}
	if len(members) == 0 {
		members = []string{p.self}
	}
	n := len(members)
	if n > reps {
		n = reps
	}
	type share struct {
		member string
		lo, hi int
		part   *engine.MCPoint
		err    error
	}
	shares := make([]*share, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*reps/n, (i+1)*reps/n
		if lo == hi {
			continue
		}
		shares = append(shares, &share{member: members[i], lo: lo, hi: hi})
	}
	var wg sync.WaitGroup
	for _, sh := range shares {
		wg.Add(1)
		go func(sh *share) {
			defer wg.Done()
			if sh.member != p.self {
				if pt, err := p.runShardMC(ctx, req, kernel, tr, sh.lo, sh.hi, sh.member); err == nil {
					sh.part = pt
					return
				} else if ctx.Err() != nil {
					sh.err = ctx.Err()
					return
				}
				// Peer failed (recorded on its breaker inside runShardMC):
				// compute the range locally rather than failing the job.
			}
			sh.part, sh.err = runLocal(sh.lo, sh.hi)
		}(sh)
	}
	wg.Wait()
	parts := make([]*engine.MCPoint, len(shares))
	for i, sh := range shares {
		if sh.err != nil {
			return nil, sh.err
		}
		// Restore the range markers: a shard computing [0, hi) reports
		// itself as a full-range point (markers cleared), but here the
		// coordinator knows it is a partial.
		sh.part.RepLo, sh.part.RepHi = sh.lo, sh.hi
		parts[i] = sh.part
	}
	pt := engine.MergeMCPartials(parts)
	if pt == nil || pt.Reps != reps {
		got := 0
		if pt != nil {
			got = pt.Reps
		}
		return nil, fmt.Errorf("cluster: mc point merged %d/%d reps", got, reps)
	}
	return pt, nil
}

// runShardMC runs one rep range on a remote member as a single-cell
// rep-range sub-job, returning its partial point. Failures (recorded on
// the member's breaker by followShard) are returned to the caller, which
// falls back to local execution for the range.
func (p *Planner) runShardMC(ctx context.Context, req engine.MCRequest, kernel string, tr triad.Triad,
	lo, hi int, member string) (*engine.MCPoint, error) {
	pr := p.peers.get(member)
	if pr == nil {
		return nil, fmt.Errorf("cluster: unknown member %q", member)
	}
	spec := vos.NewMCSpec(kernel).
		Arch(req.Arch).
		Patterns(req.Patterns).
		Seed(req.Seed).
		Samples(req.Samples).
		Triads(vos.Triad(tr)).
		RepRange(lo, hi).
		Lease(p.shardLease())
	var point *vos.MCPoint
	err := followShard(ctx, p, pr, shardCalls[vos.MCResult, vos.MCEvent]{
		kind:    "mc shard",
		submit:  func(ctx context.Context) (string, error) { return pr.remote.SubmitMC(ctx, spec) },
		events:  pr.remote.MCEvents,
		status:  pr.remote.MCStatus,
		results: pr.remote.MCResults,
		cancel:  pr.remote.CancelMC,
		event: func(ev vos.MCEvent) (string, string) {
			if ev.Type == vos.EventPoint && ev.Point != nil {
				point = ev.Point
			}
			if ev.Type == vos.EventDone && point == nil {
				return "", "" // a malformed peer stream: it ends, the salvage fetches
			}
			return ev.Type, ev.Error
		},
		state: func(r *vos.MCResult) (string, string, vos.Progress) { return r.Status, r.Error, r.Progress },
		fetched: func(id string, r *vos.MCResult) error {
			if len(r.Points) != 1 {
				return fmt.Errorf("cluster: mc shard %s on %s returned %d points, want 1", id, pr.url, len(r.Points))
			}
			point = &r.Points[0]
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	var out engine.MCPoint
	if err := reencode(point, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

package cluster

import (
	"cmp"
	"context"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/triad"
	"repro/vos"
)

// fig8Spec is the acceptance workload: the paper's Fig. 8 sweep of the
// 16-bit Brent-Kung adder over its 43 Table III triads.
func fig8Spec(patterns int, seed uint64) *vos.Spec {
	return vos.NewSpec().Arches("BKA").Widths(16).Patterns(patterns).Seed(seed)
}

// TestClusterShardedSweepMatchesLocal is the fabric's acceptance test:
// a declarative sweep submitted to one node of a cold 3-node cluster is
// sharded across the members, streams its events in the single-node
// shape (every point before the terminal event), and returns results
// DeepEqual-identical to the same spec run on a single-node vos.Local —
// then a follow-up explicit sweep on one node proves the shared cache
// tier fills across nodes.
func TestClusterShardedSweepMatchesLocal(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// Reference: the same spec on an isolated single-node client.
	ref, err := vos.NewLocal(vos.LocalOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want, err := ref.Run(ctx, fig8Spec(2000, 1))
	if err != nil {
		t.Fatal(err)
	}

	lc, err := StartLocal(3, LocalOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	client, err := vos.NewRemote(lc.URLs()[0], vos.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	id, err := client.Submit(ctx, fig8Spec(2000, 1))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := client.Events(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	points, terminals := 0, 0
	var last vos.Event
	for ev := range ch {
		if terminals > 0 {
			t.Fatalf("event %q after the terminal event", ev.Type)
		}
		switch {
		case ev.Type == vos.EventPoint:
			points++
			if ev.Point == nil || ev.Arch != "BKA" || ev.Width != 16 {
				t.Fatalf("malformed point event: %+v", ev)
			}
		case ev.Terminal():
			terminals++
			last = ev
		}
	}
	if terminals != 1 || last.Type != vos.EventDone {
		t.Fatalf("terminals = %d, last = %+v; want exactly one done event", terminals, last)
	}
	if points != 43 {
		t.Fatalf("streamed %d point events; want the 43 Table III triads", points)
	}

	got, err := client.Results(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Operators, want.Operators) {
		t.Fatalf("sharded cluster results differ from single-node results:\ngot  %+v\nwant %+v",
			got.Operators, want.Operators)
	}
	if got.Progress.Completed != 43 || got.Progress.Executed != 43 {
		t.Fatalf("progress = %+v; want 43 cold executions", got.Progress)
	}

	// The sweep must actually have been distributed: more than one node
	// simulated a share of the 43 points, and together they simulated
	// each point exactly once.
	busy, total := 0, uint64(0)
	for _, m := range lc.Members() {
		n := m.Node.Engine().Executions()
		total += n
		if n > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d node(s) simulated; the sweep was not sharded", busy)
	}
	if total != 43 {
		t.Fatalf("fleet executed %d points; want exactly 43 (no duplicate simulation)", total)
	}

	// Once owner replication has drained, node 0's memory tier holds
	// its own groups and the points pushed to it as their owner: only
	// part of the operator. Fill one more group by an explicit sweep of
	// its triads (explicit sweeps run where they are sent and fill their
	// misses from the peers), so a group another node owns is held too.
	// A declarative re-sweep then sends out exactly the groups node 0
	// does not hold in full.
	waitForPushes(t, lc)
	norm := func(ops []vos.Operator) []vos.Operator {
		out := append([]vos.Operator(nil), ops...)
		for i := range out {
			out[i].Points = append([]vos.Point(nil), out[i].Points...)
			for j := range out[i].Points {
				out[i].Points[j].FromCache = false
			}
		}
		return out
	}
	coord := lc.Members()[0].Node
	plans, err := coord.Engine().Plan(ctx, &engine.Request{Arches: []string{"BKA"}, Widths: []int{16}, Patterns: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan := &plans[0]
	// missing lists the triads of each group node 0 does not hold in full.
	missing := func() (groups [][]triad.Triad) {
		for _, g := range triad.GroupByOperatingPoint(plan.Triads) {
			if slices.ContainsFunc(g, func(ti int) bool {
				_, ok := coord.pc.Peek(plan.Keys[ti])
				return !ok
			}) {
				var trs []triad.Triad
				for _, ti := range g {
					trs = append(trs, plan.Triads[ti])
				}
				groups = append(groups, trs)
			}
		}
		return groups
	}
	cold := missing()
	if len(cold) < 2 {
		t.Fatalf("node 0 lacks %d electrical groups after the cold sweep; want at least 2", len(cold))
	}
	var touch []vos.Triad
	for _, tr := range cold[0] {
		touch = append(touch, vos.Triad(tr))
	}
	if _, err := client.Run(ctx, vos.NewSpec().Arches("BKA").Widths(16).Patterns(2000).Seed(1).Triads(touch...)); err != nil {
		t.Fatal(err)
	}
	sent := slices.Concat(missing()...)
	peerSweeps := func() (n []int) {
		for _, m := range lc.Members()[1:] {
			n = append(n, len(m.Node.Engine().List()))
		}
		return n
	}
	before := peerSweeps()
	res, err := client.Run(ctx, fig8Spec(2000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(norm(res.Operators), norm(want.Operators)) {
		t.Fatal("declarative re-sweep of a partly held operator changed result values")
	}
	var dispatched []triad.Triad
	for i, m := range lc.Members()[1:] {
		for _, sw := range m.Node.Engine().List()[before[i]:] {
			dispatched = append(dispatched, sw.Request.Triads...)
		}
	}
	sortTriads := func(trs []triad.Triad) []triad.Triad {
		trs = append([]triad.Triad(nil), trs...)
		slices.SortFunc(trs, func(a, b triad.Triad) int {
			return cmp.Or(cmp.Compare(a.Tclk, b.Tclk), cmp.Compare(a.Vdd, b.Vdd), cmp.Compare(a.Vbb, b.Vbb))
		})
		return trs
	}
	if got, want := sortTriads(dispatched), sortTriads(sent); !reflect.DeepEqual(got, want) {
		t.Fatalf("declarative re-sweep sent %d triads to the peers %v; want the %d of the groups node 0 does not hold %v",
			len(got), got, len(want), want)
	}

	// Cross-node cache tier: run the same 43 triads as an explicit sweep
	// pinned to node 0. It executes locally (explicit sweeps never
	// re-shard), so every group another node simulated must be filled
	// from a peer, not recomputed.
	stats, err := client.CacheStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	peerHits := stats.PeerHits
	var trs []vos.Triad
	for _, p := range want.Operators[0].Points {
		trs = append(trs, p.Triad)
	}
	spec2 := vos.NewSpec().Arches("BKA").Widths(16).Patterns(2000).Seed(1).Triads(trs...)
	res2, err := client.Run(ctx, spec2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Progress.Executed != 0 {
		t.Fatalf("explicit re-sweep executed %d points; want all 43 served from the cache tier",
			res2.Progress.Executed)
	}
	if !reflect.DeepEqual(norm(res2.Operators), norm(want.Operators)) {
		t.Fatal("explicit re-sweep over the cache tier changed result values")
	}
	if stats, err = client.CacheStats(ctx); err != nil {
		t.Fatal(err)
	}
	if stats.PeerHits == peerHits {
		t.Fatalf("node 0 stats = %+v; want at least one cross-node peer-cache fill", stats)
	}

	// Node 0 now holds every point: a declarative re-sweep is served
	// where it lands and starts no sub-sweep on the peers.
	before = peerSweeps()
	res3, err := client.Run(ctx, fig8Spec(2000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if after := peerSweeps(); !reflect.DeepEqual(after, before) {
		t.Fatalf("warm declarative re-sweep started sub-sweeps on the peers: sweeps %v -> %v", before, after)
	}
	if !reflect.DeepEqual(norm(res3.Operators), norm(want.Operators)) {
		t.Fatal("warm declarative re-sweep changed result values")
	}
}

// waitForPushes blocks until the fleet's asynchronous owner replication
// has quiesced: the aggregate push+drop counter stops moving.
func waitForPushes(t *testing.T, lc *LocalCluster) {
	t.Helper()
	count := func() uint64 {
		var n uint64
		for _, m := range lc.Members() {
			s := m.Node.Engine().CacheStats()
			n += s.PeerPushes + s.PeerPushDrops
		}
		return n
	}
	deadline := time.Now().Add(10 * time.Second)
	prev := count()
	for time.Now().Before(deadline) {
		time.Sleep(100 * time.Millisecond)
		if next := count(); next != prev {
			prev = next
			continue
		}
		if prev > 0 {
			return
		}
	}
	t.Fatalf("owner replication never quiesced (count %d)", prev)
}

// TestClusterKillNodeMidSweep kills a shard-executing node in the
// middle of a sweep and checks the coordinator re-routes the dead
// node's remaining points: the sweep still completes with all 43
// points, no duplicates, no losses.
func TestClusterKillNodeMidSweep(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	lc, err := StartLocal(3, LocalOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	client, err := vos.NewRemote(lc.URLs()[0], vos.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// The paper's pattern count (20000) keeps per-group simulations slow
	// enough that the kill lands mid-sweep; a fresh seed keeps the
	// cluster cold.
	id, err := client.Submit(ctx, fig8Spec(20000, 7))
	if err != nil {
		t.Fatal(err)
	}
	// Kill a non-coordinator the moment it is simulating its shard: its
	// sub-sweep dies with points still pending, forcing the coordinator
	// down the re-dispatch path (not just a clean post-shard shutdown).
	victim := -1
	for victim < 0 {
		for i, m := range lc.Members()[1:] {
			if m.Node.Engine().Executions() > 0 {
				victim = i + 1
				break
			}
		}
		if victim >= 0 {
			break
		}
		if st, err := client.Status(ctx, id); err == nil && st.Status != vos.StatusRunning && st.Status != vos.StatusPending {
			t.Fatalf("sweep reached %q before any remote shard simulated", st.Status)
		}
		if ctx.Err() != nil {
			t.Fatal("timed out waiting for a remote shard to start")
		}
		time.Sleep(time.Millisecond)
	}
	lc.Kill(victim)

	// The event history replays from the sweep's start, so subscribing
	// after the kill still yields every point event exactly once.
	ch, err := client.Events(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	points := 0
	var last vos.Event
	for ev := range ch {
		if ev.Type == vos.EventPoint {
			points++
		}
		if ev.Terminal() {
			last = ev
		}
	}
	if points != 43 {
		t.Fatalf("streamed %d point events; want 43", points)
	}
	// The coordinator's own event stream survived (we submitted to node
	// 0 and killed another), so the terminal event arrives on this
	// stream; a dropped stream would surface as last.Type == "".
	if last.Type != vos.EventDone {
		t.Fatalf("terminal event = %+v; want done despite the node kill", last)
	}
	res, err := client.Results(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Operators) != 1 || len(res.Operators[0].Points) != 43 {
		t.Fatalf("results carry %d operators; want 1 × 43 points", len(res.Operators))
	}
	if res.Progress.Completed != 43 {
		t.Fatalf("progress = %+v; want 43 completed", res.Progress)
	}
	for i, p := range res.Operators[0].Points {
		if p.EnergyPerOpFJ <= 0 || p.Stats.Words == 0 {
			t.Fatalf("point %d is empty: %+v — lost during failover?", i, p)
		}
	}
}

package cluster

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/vos"
)

// TestCoordinatorKillSurvival is the durable-fabric acceptance test: a
// sweep submitted to a journaled coordinator survives that coordinator
// being killed mid-flight. The restarted node replays its journal,
// re-adopts the sweep under its original ID, re-dispatches the shards,
// and a Reconnect client — which never saw anything but one submit and
// one event stream — drains the job to completion with results
// DeepEqual-identical to a single-node run that was never interrupted.
func TestCoordinatorKillSurvival(t *testing.T) {
	base := chaos.SnapshotGoroutines()
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	ref, err := vos.NewLocal(vos.LocalOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(ctx, fig8Spec(800, 5))
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()

	lc, err := StartLocal(3, LocalOptions{
		Workers:     2,
		CacheRoot:   t.TempDir(),
		JournalRoot: t.TempDir(),
		PerNode: func(i int, no *NodeOptions) {
			no.ShardCallTimeout = 5 * time.Second
			no.ShardStallTimeout = 10 * time.Second
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	client, err := vos.NewRemote(lc.URLs()[0], vos.RemoteOptions{Reconnect: true})
	if err != nil {
		t.Fatal(err)
	}

	id, err := client.Submit(ctx, fig8Spec(800, 5))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := client.Events(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	// Let the coordinator make real progress (journaled completions to
	// resume from), then kill it mid-flight and bring it back.
	preKill := 0
	for ev := range ch {
		if ev.Terminal() {
			t.Fatalf("sweep finished before the kill (%s); grow the workload", ev.Type)
		}
		if ev.Type == vos.EventPoint {
			if preKill++; preKill >= 3 {
				break
			}
		}
	}
	if err := lc.Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := lc.Restart(0); err != nil {
		t.Fatal(err)
	}

	// The same channel must ride through the crash: the client reopens
	// the stream against the recovering daemon, deduplicates the replay,
	// and still ends with exactly one terminal event.
	points, terminals := preKill, 0
	var last vos.Event
	for ev := range ch {
		switch {
		case ev.Type == vos.EventPoint:
			points++
		case ev.Terminal():
			terminals++
			last = ev
		}
	}
	if terminals != 1 || last.Type != vos.EventDone {
		t.Fatalf("terminals = %d, last = %+v; want exactly one done event across the crash", terminals, last)
	}
	if points != 43 {
		t.Fatalf("saw %d distinct point events across the crash; want 43", points)
	}

	got, err := client.Results(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Progress.Completed != 43 {
		t.Fatalf("progress = %+v; want 43 completions", got.Progress)
	}
	if !reflect.DeepEqual(normPoints(got.Operators), normPoints(want.Operators)) {
		t.Fatal("post-crash results differ from the uninterrupted single-node run")
	}

	// Wait also resolves across restarts (status polling tolerates the
	// recovering window), and cancel on the finished job reports the
	// distinct already-done error.
	res, err := client.Wait(ctx, id)
	if err != nil || res.Status != vos.StatusDone {
		t.Fatalf("wait after crash: %v status=%v", err, res.Status)
	}
	if err := client.Cancel(ctx, id); !errors.Is(err, vos.ErrAlreadyDone) {
		t.Fatalf("cancel finished sweep: %v, want ErrAlreadyDone", err)
	}

	// A second restart replays a purely terminal journal: the job stays
	// served, nothing re-executes.
	if err := lc.Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := lc.Restart(0); err != nil {
		t.Fatal(err)
	}
	eng := lc.Members()[0].Node.Engine()
	rctx, rcancel := context.WithTimeout(ctx, time.Minute)
	if err := eng.WaitReady(rctx); err != nil {
		t.Fatal(err)
	}
	rcancel()
	if n := eng.Executions(); n != 0 {
		t.Fatalf("replaying a terminal journal executed %d points, want 0", n)
	}
	res2, err := client.Results(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normPoints(res2.Operators), normPoints(want.Operators)) {
		t.Fatal("results drifted across the second restart")
	}

	client.Close()
	lc.Close()
	if leaked := base.CheckLeaks(10 * time.Second); len(leaked) > 0 {
		t.Fatalf("%d goroutine signature(s) leaked after the recovery run:\n%s", len(leaked), leaked[0])
	}
}

// TestCoordinatorKillMCSurvival mirrors the sweep test for the Monte
// Carlo service, whose cells live only in the journal: a killed and
// restarted coordinator must finish the job and serve points identical
// to an uninterrupted local run.
func TestCoordinatorKillMCSurvival(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	spec := func() *vos.MCSpec {
		return vos.NewMCSpec("fir", "kmeans").Arch("RCA").Seed(9).Samples(1<<17).
			Triads(vos.Triad{Tclk: 4.0, Vdd: 0.9}, vos.Triad{Tclk: 3.0, Vdd: 0.8})
	}
	ref, err := vos.NewLocal(vos.LocalOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.RunMC(ctx, spec())
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()

	lc, err := StartLocal(2, LocalOptions{
		Workers:     1,
		JournalRoot: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	client, err := vos.NewRemote(lc.URLs()[0], vos.RemoteOptions{Reconnect: true})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	id, err := client.SubmitMC(ctx, spec())
	if err != nil {
		t.Fatal(err)
	}
	ch, err := client.MCEvents(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	for ev := range ch {
		if ev.Terminal() {
			t.Fatalf("mc job finished before the kill (%s); grow the workload", ev.Type)
		}
		if ev.Type == vos.EventPoint {
			break
		}
	}
	if err := lc.Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := lc.Restart(0); err != nil {
		t.Fatal(err)
	}

	res, err := client.WaitMC(ctx, id)
	if err != nil {
		t.Fatalf("wait across the crash: %v", err)
	}
	if res.Status != vos.StatusDone {
		t.Fatalf("mc job after restart: %v (%s)", res.Status, res.Error)
	}
	full, err := client.MCResults(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full.Points, want.Points) {
		t.Fatal("post-crash mc points differ from the uninterrupted single-node run")
	}
}

// TestStartLocalWaitsForReplay boots a journaled cluster over journals
// that already hold many finished jobs: StartLocal must not return
// before every member has replayed its journal and accepts work, and
// neither may Restart before the restarted member has.
func TestStartLocalWaitsForReplay(t *testing.T) {
	const nodes, jobs = 3, 200
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	root := t.TempDir()
	req := engine.Request{Arches: []string{"RCA"}, Widths: []int{4}, Patterns: 40, Seed: 7}
	for i := 0; i < nodes; i++ {
		e, err := engine.New(engine.Options{Workers: 2, JournalDir: filepath.Join(root, fmt.Sprintf("node%d", i))})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.WaitReady(ctx); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < jobs; k++ {
			id, err := e.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			if sw, err := e.Wait(ctx, id); err != nil || sw.Status != engine.StatusDone {
				t.Fatalf("seed sweep %d on node %d: %v status=%v", k, i, err, sw.Status)
			}
		}
		e.Close()
	}

	lc, err := StartLocal(nodes, LocalOptions{Workers: 2, JournalRoot: root})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	for i, m := range lc.Members() {
		if got := m.Node.Engine().State(); got != engine.StateReady {
			t.Errorf("node %d is %q when StartLocal returns, want %q", i, got, engine.StateReady)
		}
	}
	if err := lc.Kill(1); err != nil {
		t.Fatal(err)
	}
	if err := lc.Restart(1); err != nil {
		t.Fatal(err)
	}
	if got := lc.Members()[1].Node.Engine().State(); got != engine.StateReady {
		t.Errorf("node 1 is %q when Restart returns, want %q", got, engine.StateReady)
	}
}

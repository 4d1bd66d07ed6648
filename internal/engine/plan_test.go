package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/charz"
)

// hookSynthesis makes every synthesis of the test call f first, which
// may delay it, fail it or count it; f returning nil lets the real
// synthesis run.
func hookSynthesis(t *testing.T, f func(cfg charz.Config) error) {
	t.Helper()
	orig := synthesize
	synthesize = func(cfg charz.Config) (*charz.Prepared, error) {
		if err := f(cfg); err != nil {
			return nil, err
		}
		return orig(cfg)
	}
	t.Cleanup(func() { synthesize = orig })
}

func opName(cfg charz.Config) string { return fmt.Sprintf("%s%d", cfg.Arch, cfg.Width) }

// blockWorker occupies one pool worker until the returned func is
// called.
func blockWorker(t *testing.T, e *Engine) (release func()) {
	t.Helper()
	taken, gate := make(chan struct{}), make(chan struct{})
	go e.exec(context.Background(), func() {
		close(taken)
		<-gate
	})
	<-taken
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return release
}

// TestPlanPreparesConcurrently: Plan synthesizes the request's
// operators side by side, never more at once than the pool has
// workers, and hands the plans back in request order however the
// syntheses finish.
func TestPlanPreparesConcurrently(t *testing.T) {
	order := []string{"RCA4", "RCA6", "BKA4", "BKA6", "KSA4", "KSA6"}
	var inFlight, peak atomic.Int32
	hookSynthesis(t, func(cfg charz.Config) error {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		// Earlier operators take longer, so they finish last.
		for i, name := range order {
			if name == opName(cfg) {
				time.Sleep(time.Duration(len(order)-i) * 10 * time.Millisecond)
			}
		}
		return nil
	})
	e := newTestEngine(t, Options{Workers: 2})
	req := &Request{Arches: []string{"RCA", "BKA", "KSA"}, Widths: []int{4, 6}, Patterns: 10, Seed: 1}
	plans, err := e.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != len(order) {
		t.Fatalf("%d plans, want %d", len(plans), len(order))
	}
	for i, p := range plans {
		if got := opName(p.Config); got != order[i] {
			t.Errorf("plan %d is %s, want %s", i, got, order[i])
		}
		if len(p.Triads) != 43 || len(p.Keys) != 43 {
			t.Errorf("plan %d: %d triads, %d keys, want 43", i, len(p.Triads), len(p.Keys))
		}
	}
	if got := peak.Load(); got != 2 {
		t.Fatalf("at most %d syntheses ran at once, want 2 (the pool size)", got)
	}
}

// TestPlanFirstErrorInRequestOrder: when several operators fail, the
// earliest in request order decides Plan's error even if a later one
// fails first, and Plan returns only after every synthesis it started
// has.
func TestPlanFirstErrorInRequestOrder(t *testing.T) {
	errRCA, errKSA := errors.New("rca failed"), errors.New("ksa failed")
	var slowDone atomic.Bool
	hookSynthesis(t, func(cfg charz.Config) error {
		switch opName(cfg) {
		case "RCA4":
			time.Sleep(30 * time.Millisecond)
			return errRCA
		case "BKA4":
			time.Sleep(60 * time.Millisecond)
			slowDone.Store(true)
		case "KSA4":
			return errKSA
		}
		return nil
	})
	e := newTestEngine(t, Options{Workers: 3})
	req := &Request{Arches: []string{"RCA", "BKA", "KSA"}, Widths: []int{4}, Patterns: 10, Seed: 1}
	plans, err := e.Plan(context.Background(), req)
	if !errors.Is(err, errRCA) || plans != nil {
		t.Fatalf("Plan = %d plans, %v; want the first operator's error", len(plans), err)
	}
	if !slowDone.Load() {
		t.Fatal("Plan returned while a synthesis was still running")
	}
}

// TestPlanCanceledNotMemoized: a Plan whose context ends while its
// synthesis waits for a worker fails with the context's error, and the
// next Plan synthesizes the operator instead of replaying that error.
func TestPlanCanceledNotMemoized(t *testing.T) {
	var calls atomic.Int32
	hookSynthesis(t, func(charz.Config) error { calls.Add(1); return nil })
	e := newTestEngine(t, Options{Workers: 1})
	req := &Request{Arches: []string{"RCA"}, Widths: []int{4}, Patterns: 10, Seed: 1}

	release := blockWorker(t, e)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	if _, err := e.Plan(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("Plan on a busy pool with a context canceled: %v", err)
	}
	release()
	if calls.Load() != 0 {
		t.Fatalf("%d syntheses ran for the canceled Plan", calls.Load())
	}
	plans, err := e.Plan(context.Background(), req)
	if err != nil {
		t.Fatalf("Plan after a canceled one: %v", err)
	}
	if len(plans) != 1 || calls.Load() != 1 {
		t.Fatalf("%d plans from %d syntheses, want 1 from 1", len(plans), calls.Load())
	}
}

// TestPlanMemoHitSkipsPool: re-planning a prepared operator must not
// wait for a worker. A serving node with one worker plans every sharded
// sweep it receives while that worker may be busy.
func TestPlanMemoHitSkipsPool(t *testing.T) {
	var calls atomic.Int32
	hookSynthesis(t, func(charz.Config) error { calls.Add(1); return nil })
	e := newTestEngine(t, Options{Workers: 1})
	req := &Request{Arches: []string{"RCA", "BKA"}, Widths: []int{4}, Patterns: 10, Seed: 1}
	if _, err := e.Plan(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	blockWorker(t, e)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	plans, err := e.Plan(ctx, req)
	if err != nil {
		t.Fatalf("memoized Plan behind a busy worker: %v", err)
	}
	if len(plans) != 2 || calls.Load() != 2 {
		t.Fatalf("%d plans, %d syntheses; want 2 and 2", len(plans), calls.Load())
	}
}

// TestPrepareWaiterOutlivesWithdrawnOwner: a Prepare waiting on another
// caller's synthesis of the same operator honors its own context, and
// when the owner withdraws unsynthesized, the waiter synthesizes in its
// place.
func TestPrepareWaiterOutlivesWithdrawnOwner(t *testing.T) {
	var calls atomic.Int32
	hookSynthesis(t, func(charz.Config) error { calls.Add(1); return nil })
	e := newTestEngine(t, Options{Workers: 1})
	cfg := charz.Config{Arch: mustArch("RCA"), Width: 4, Patterns: 10, Seed: 1}
	key, err := prepKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	release := blockWorker(t, e)

	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	ownerErr := make(chan error, 1)
	go func() {
		_, err := e.Prepare(ownerCtx, cfg)
		ownerErr <- err
	}()
	for !e.memoHolds(key) {
		runtime.Gosched()
	}
	impatient, cancelImpatient := context.WithCancel(context.Background())
	cancelImpatient()
	if _, err := e.Prepare(impatient, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter with a canceled context: %v", err)
	}
	waiterErr := make(chan error, 1)
	go func() {
		_, err := e.Prepare(context.Background(), cfg)
		waiterErr <- err
	}()
	// Give the waiter time to block on the owner's entry; if it has not,
	// it finds no entry and synthesizes as an owner, which passes too.
	time.Sleep(20 * time.Millisecond)
	cancelOwner()
	if err := <-ownerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner: %v", err)
	}
	release()
	if err := <-waiterErr; err != nil {
		t.Fatalf("waiter after the owner withdrew: %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("%d syntheses, want 1", calls.Load())
	}
}

// memoHolds reports whether the synthesis memo has an entry under key.
func (e *Engine) memoHolds(key string) bool {
	e.prepMu.Lock()
	defer e.prepMu.Unlock()
	_, ok := e.preps[key]
	return ok
}

// TestPrepMemoBounded: preparing more distinct seeds than maxPrepEntries
// leaves at most that many syntheses memoized, FIFO, and never drops
// one still in flight; an evicted operator prepares again, to an equal
// netlist and report. Seeds are prepared from several goroutines so the
// race detector sees the memo shared.
func TestPrepMemoBounded(t *testing.T) {
	gate := make(chan struct{})
	var calls atomic.Int32
	hookSynthesis(t, func(cfg charz.Config) error {
		calls.Add(1)
		if cfg.Seed == 0 {
			<-gate // the one synthesis kept in flight past the bound
		}
		return nil
	})
	e := newTestEngine(t, Options{Workers: 2})
	cfgOf := func(seed uint64) charz.Config {
		return charz.Config{Arch: mustArch("RCA"), Width: 4, Patterns: 10, Seed: seed}
	}
	held := make(chan *charz.Prepared, 1)
	go func() {
		p, err := e.Prepare(context.Background(), cfgOf(0))
		if err != nil {
			t.Error(err)
		}
		held <- p
	}()
	key0, err := prepKey(cfgOf(0))
	if err != nil {
		t.Fatal(err)
	}
	for !e.memoHolds(key0) {
		runtime.Gosched()
	}
	first, err := e.Prepare(context.Background(), cfgOf(1))
	if err != nil {
		t.Fatal(err)
	}
	const seeds = maxPrepEntries + 20
	var wg sync.WaitGroup
	for g := uint64(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := 2 + g; seed <= seeds; seed += 4 {
				if _, err := e.Prepare(context.Background(), cfgOf(seed)); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	e.prepMu.Lock()
	n, order := len(e.preps), len(e.prepOrder)
	e.prepMu.Unlock()
	if n > maxPrepEntries || order != n {
		t.Fatalf("memo holds %d entries (%d ordered) after %d seeds, want at most %d", n, order, seeds+1, maxPrepEntries)
	}
	if !e.memoHolds(key0) {
		t.Fatal("a synthesis in flight was evicted")
	}
	close(gate)
	if p := <-held; p == nil || p.Netlist == nil {
		t.Fatal("held synthesis did not finish")
	}
	before := calls.Load()
	again, err := e.Prepare(context.Background(), cfgOf(1))
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != before+1 {
		t.Fatalf("evicted operator: %d syntheses, want 1", calls.Load()-before)
	}
	if again.Netlist == first.Netlist {
		t.Fatal("evicted operator served its old netlist")
	}
	if !reflect.DeepEqual(again.Netlist, first.Netlist) || !reflect.DeepEqual(again.Report, first.Report) {
		t.Fatal("evicted operator prepared again to a different netlist or report")
	}
}

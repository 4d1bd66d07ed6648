# Developer entry points. CI runs the same targets.

GO ?= go

.PHONY: build test race bench bench-smoke bench-diff apicheck apicheck-update clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs the simulation hot-path benchmarks at a meaningful iteration
# count and records machine-readable results in BENCH_sim.json — the
# committed baseline the bench-diff gate compares against. Best of nine
# samples for the micro benches (their microsecond scale makes them
# vulnerable to multi-second scheduler-noise bursts that a best-of-three
# cannot ride out) and best of five for the wall-clock sweeps; bench-diff
# uses the same protocol, so baseline and fresh runs see the same noise
# floor.
bench:
	$(GO) run ./cmd/vosbench -benchtime 1000x -count 9 -sweep-count 5 -out BENCH_sim.json

# bench-smoke is a quick ungated run for local iteration: enough
# iterations to eyeball gross hot-path changes. It writes to the scratch
# file — the committed BENCH_sim.json baseline is only rewritten by a
# deliberate `make bench`.
bench-smoke:
	$(GO) run ./cmd/vosbench -benchtime 100x -out BENCH_sim.new.json

# bench-diff re-runs the benchmarks into a scratch file and compares them
# against the committed BENCH_sim.json baseline, failing on a >20% ns/op
# or allocs/op regression of any gated benchmark (see vosbench -diff-filter; the
# journaled EngineWarmSweep/ClusterWarmLookup twins gate the durability
# tax, ClusterWarmSweep the warm declarative sweep through a cluster). The iteration budget and sample counts match `make bench`
# — comparing a
# short warm-up-dominated run against a full baseline reads as a phantom
# regression — so a contended-scheduler outlier cannot fail the gate on
# its own. CI runs this on every push; run it locally before committing
# hot-path changes.
bench-diff:
	$(GO) run ./cmd/vosbench -benchtime 1000x -count 9 -sweep-count 5 -out BENCH_sim.new.json -diff BENCH_sim.json -profile-regressed bench-profiles

# apicheck fails when the exported surface of the public vos SDK drifts
# from the committed api/vos.txt golden (`go doc -all`, so doc-comment
# changes count as API changes too — they are part of the contract).
# After a deliberate API change, regenerate with `make apicheck-update`
# and commit the refreshed golden; CI runs apicheck on every push.
apicheck:
	@$(GO) doc -all ./vos | diff -u api/vos.txt - \
		|| { echo "error: exported vos API drifted from api/vos.txt; run 'make apicheck-update' and commit if intended" >&2; exit 1; }
	@echo "vos API matches api/vos.txt"

apicheck-update:
	$(GO) doc -all ./vos > api/vos.txt

clean:
	rm -f BENCH_sim.new.json

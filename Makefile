# Convenience targets for the VSV reproduction.

GO ?= go

.PHONY: all build fmt-check vet test lint check serve-smoke campaign-smoke stress fuzz bench bench-compare experiments examples cover cover-gate clean

all: build vet test

build:
	$(GO) build ./...

# gofmt gate: fails, listing the files, when any Go source — lint
# fixtures and the benchmark module included — differs from gofmt's output.
GOFMT_PATHS = *.go cmd internal examples _perfbench
fmt-check:
	@out=$$(gofmt -l $(GOFMT_PATHS)); \
	if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# vsvlint enforces the repo's cross-cutting invariants: the simulator's
# (determinism, zero-alloc hot path, panic discipline, float ordering,
# the fast-forward event-horizon contract — DESIGN.md §9) and the
# scale-out engine's (atomic access discipline, lock ordering, durable
# error handling, failpoint coverage — DESIGN.md §14). CI runs the same
# suite with -json -baseline .vsvlint-baseline.json and archives the
# report.
lint:
	$(GO) run ./cmd/vsvlint ./...

# The pre-merge gate: gofmt, vet, vsvlint, the race-enabled short suite (which
# includes the sweep engine's determinism and cancellation tests, the
# fast-forward differential tests, and the campaign service's e2e suite),
# and the golden-output regression (the short-mode experiments digest must
# match the committed hash with fast-forward both enabled and disabled —
# see scripts/check_golden.sh).
check: fmt-check vet lint
	$(GO) test -race -short ./...
	sh scripts/check_golden.sh

# End-to-end smoke of the campaign service: boot cmd/vsvserve, drive a
# campaign through the HTTP API with curl, and diff the fetched artefact
# bytes against the direct cmd/experiments run (must be identical).
serve-smoke:
	sh scripts/serve_smoke.sh

# End-to-end smoke of the multi-process campaign driver: a 4-process
# cmd/vsvcampaign run (and a rerun with one worker chaos-killed mid-flight)
# must emit bytes identical to the sequential cmd/experiments run.
campaign-smoke:
	sh scripts/campaign_smoke.sh

# Robustness soak: loop the fault-injection, watchdog, campaign-runner,
# worker-bound, bounded-cache and ledger tests, and the record log's
# failpoint matrix, under the race detector.
# Fault schedules exercise different interleavings per -count iteration
# only through scheduling, so the loop shakes out timing-dependent bugs
# the single-shot suite would miss. The experiments package runs on its
# own line, after sim and sweep: sharing 2 CPUs with them, its twenty
# iterations passed go test's default 10-minute timeout. Alone they take
# about six minutes (362 s), and the limit leaves three times that.
STRESS_RUN = 'Fault|Watchdog|Robust|Checkpoint|RunError|FailFast|ContinueOnError|Timeout|Resume|CacheBound|Bound|Ledger'
stress:
	$(GO) test -race -count=20 ./internal/faults/ ./internal/recordlog/
	$(GO) test -race -count=20 -run $(STRESS_RUN) ./internal/sim/ ./internal/sweep/
	$(GO) test -race -count=20 -timeout 20m -run $(STRESS_RUN) ./internal/experiments/

# Short native-fuzz smoke of the hardened parsers (the CI budget; run with
# a larger -fuzztime locally when touching these surfaces).
fuzz:
	$(GO) test ./internal/sim/ -run FuzzConfigValidate -fuzz FuzzConfigValidate -fuzztime 30s
	$(GO) test ./internal/tracefile/ -run FuzzReader -fuzz FuzzReader -fuzztime 30s
	$(GO) test ./internal/campaign/apiv1/ -run FuzzDecodeLedgerRecord -fuzz FuzzDecodeLedgerRecord -fuzztime 30s

# One testing.B per paper artefact + ablations, run $(BENCH_COUNT) times
# each; benchjson folds the repeats to each benchmark's fastest run (noise
# on a shared machine only ever adds time) and records the JSON document
# (BENCH_$(BENCH_N).json) so runs can be committed and compared across
# PRs. Set BENCH_N to the PR number and BENCH_NOTE to a one-line
# description of what changed — benchjson refuses to record a document
# with an empty or placeholder note.
BENCH_N ?= 5
BENCH_NOTE ?=
BENCH_COUNT ?= 5
bench:
	$(GO) test -run XXX -bench=. -benchmem -count=$(BENCH_COUNT) -benchtime=1x . | tee /dev/stderr | \
		$(GO) run ./cmd/benchjson -o BENCH_$(BENCH_N).json -note "$(BENCH_NOTE)"

# Fails on >10% ns/op regression of any benchmark shared between the
# previous PR's document and this one (see scripts/bench_compare.sh).
bench-compare:
	sh scripts/bench_compare.sh

# Regenerate every table and figure (a few minutes).
experiments:
	$(GO) run ./cmd/experiments -exp all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/timeline
	$(GO) run ./examples/threshold_tuning
	$(GO) run ./examples/pointer_chase
	$(GO) run ./examples/prefetch_stress
	$(GO) run ./examples/vddl_sweep
	$(GO) run ./examples/power_trace

cover:
	$(GO) test ./internal/... -coverprofile=cover.out
	$(GO) tool cover -func=cover.out | tail -1

# Fails when ./internal/... statement coverage drops below the committed
# floor (see scripts/cover_gate.sh).
cover-gate:
	sh scripts/cover_gate.sh

clean:
	rm -f cover.out vsv_trace.csv

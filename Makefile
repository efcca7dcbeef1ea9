# Build/verify entry points. `make ci` is the PR gate: vet + build + tests
# + the race detector over the concurrent pipeline, cache and daemon.

GO ?= go

.PHONY: all build vet lint test race bench bench-compare check loadtest ci

all: build

build:
	$(GO) build ./...

# vet first requires every Go file to be gofmt-clean (perfbench/ included;
# the benchmark's .bench_build/ scratch tree is skipped), then runs the
# toolchain's analyzers and treegion-vet: the repo's own static-analysis
# suite over its determinism/atomicity/arena-escape/codec invariants (see
# internal/analysis and DESIGN.md §14). Any finding fails the target, and
# thereby lint, check and ci.
vet:
	@unformatted=$$(gofmt -l . | grep -v '^\.bench_build/'); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l: these files are not gofmt-clean:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/treegion-vet ./...

# Static analysis: go vet + treegion-vet plus the schedule verifier over
# every example program, across all five region formers — once with calls
# as barriers, once with inline-on-absorb splicing them (the CL rules and
# call-executing SEM certification run in both passes).
lint: vet
	$(GO) run ./cmd/treegion-lint -region all testdata/fig1.tir examples/tir/*.tir
	$(GO) run ./cmd/treegion-lint -region all -inline examples/tir/*.tir

test:
	$(GO) test ./...

# The compilation service is concurrent (worker pool, sharded cache,
# daemon); every PR must pass the race detector, not just the plain tests.
race:
	$(GO) test -race ./...

# Suite compiles (serial/parallel/cached/verified/warm-store/verified-warm),
# the stress preset at 8 workers, the interprocedural presets with inlining
# off and on (BenchmarkCompileSuiteInline), plus the per-phase
# micro-benchmarks of the compiler core (treeform and treeform-td
# formation, liveness, DDG build, list scheduling and region measurement
# per tier — suite, stress, stress2 — with us/region for the formation, DDG
# and measure phases and us/block for liveness; the verifier's ir, rg, sc
# and sem rule families with ms/pass), with allocation counts.
# Every benchmark runs five times (-count 5), so a capture shows its own
# spread: cmd/benchdiff prints each side's median and interquartile range.
# The raw `go test -json` stream is captured in BENCH_14.json for machine
# comparison against earlier runs (BENCH_13.json holds the single-run
# capture from before liveness moved to the registers that can be live).
# The parallel and stress benchmarks report speedup-vs-serial; on a
# single-core box that metric caps at ~1x by physics.
bench:
	$(GO) test -run XXX -bench 'BenchmarkCompileSuite|BenchmarkCompileStress|BenchmarkColdCompile' -benchmem -benchtime 3x -count 5 -json . | tee BENCH_14.json

# bench-compare diffs two bench captures. benchstat is used when installed
# (fed plain text extracted from the JSON captures); otherwise the bundled
# dependency-free cmd/benchdiff prints each side's median and interquartile
# range and the delta, marking with "~" a delta inside the noise. Override
# the endpoints with BENCH_OLD= / BENCH_NEW=.
BENCH_OLD ?= BENCH_13.json
BENCH_NEW ?= BENCH_14.json
bench-compare:
	@if command -v benchstat >/dev/null 2>&1; then \
		$(GO) run ./cmd/benchdiff -extract $(BENCH_OLD) > /tmp/benchdiff_old.txt; \
		$(GO) run ./cmd/benchdiff -extract $(BENCH_NEW) > /tmp/benchdiff_new.txt; \
		benchstat /tmp/benchdiff_old.txt /tmp/benchdiff_new.txt; \
	else \
		$(GO) run ./cmd/benchdiff $(BENCH_OLD) $(BENCH_NEW); \
	fi

# check is the fast gate: lint + build + full tests, plus the race detector
# over the concurrency-heavy subsystems (artifact store with its tgart2
# codec tests, job queue, singleflight cache, daemon endpoints, telemetry
# registry, and the eval.Arena/ddg.Scratch/sched.Scratch reuse paths that
# each pipeline worker keeps across every function it compiles) and one
# racing pass over the hot-path micro-benchmarks.
# The pipeline's done-channel relay (workers close done[i], the caller emits
# in index order) races twenty times over, panics and cancellation included,
# and so do verifier panics and verified results served from the cache.
# The inliner and the call-executing interpreter race here because pipeline
# workers run splices concurrently across functions of one program; the
# verifier races beside them because every pipeline worker runs it
# concurrently, and its differential witnesses live there.
# The eval -short slice includes TestVerifyStress2Slice, so one giant
# stress2 function races through compile-and-verify on every check, and
# TestArenaReuseMatchesFreshArena, the differential check on arena and
# scratch reuse; the sched line races the bitmap-queue unit and adversarial
# tests.
# The store and eval run with -short so their heavier matrices race a
# reduced preset slice; the full matrices run in `test`.
# The benchmark (perfbench/) is a separate module that imports the internal
# packages, so the root `go build ./...` cannot see a change that breaks
# it: check vets and tests it on its own.
check: lint build test
	$(GO) test -race -short ./internal/store/ ./internal/eval/
	$(GO) test -race ./internal/jobs/ ./internal/compcache/ ./internal/pipeline/ ./internal/router/ ./cmd/treegiond/
	$(GO) test -race -count 20 -run 'CompileEach|PanicDropsWorkerArena|ContextCancellation|FirstErrorByIndex|VerifierPanic|VerifiedResults' ./internal/pipeline/
	$(GO) test -race ./internal/telemetry/ ./internal/ddg/ ./internal/sched/
	$(GO) test -race ./internal/inline/ ./internal/interp/ ./internal/verify/
	$(GO) test -race -run NONE -bench 'BenchmarkColdCompile' -benchtime 1x .
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# loadtest boots the two-replica scale-out topology (2 treegiond + the
# shard router) and runs a short closed-loop loadgen pass against the
# router; non-zero exit if the error rate blows the budget.
loadtest: build
	./scripts/loadtest.sh

# lint runs first and fails the gate on any finding.
ci: lint build test race

# Build/verify entry points. `make ci` is the PR gate: vet + build + tests
# + the race detector over the concurrent pipeline, cache and daemon.

GO ?= go

.PHONY: all build vet lint test race fuzz bench bench-compare bench-ab lines check loadtest ci

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

# fuzz searches for inputs that break an untrusted-input boundary, outside
# the tier-1 tests, 60 s per target: FuzzParseProgram requires every .tir
# text ParseProgram accepts to print, re-parse and print back to the same
# bytes; FuzzDecodeArtifact requires every tgart2 payload to decode as
# schema skew, as corruption, or to a result whose re-encoding is
# byte-stable; FuzzKeyForBody requires every /v1/compile or
# /v1/compile-batch body to get a shard key or a 400, and every accepted
# body's normal form to key as the body does; FuzzDecodeBody requires the
# one-pass body decoder and its encoding/json reference to accept every
# body with equal structs or refuse it with the same status and code (and
# the same message for unknown_field). None may panic. Plain `go test`
# replays the committed corpora (internal/irtext/testdata/fuzz/,
# internal/store/testdata/fuzz/, cmd/treegiond/testdata/fuzz/,
# internal/api/testdata/fuzz/) and the seeds; a crasher found here lands
# there too. The artifact seeds run to 50 KB and a batch seed to 30 KB,
# and minimizing each new input from one would take the default 60 s, so
# their minimization is capped at 10 s.
fuzz:
	$(GO) test -run XXX -fuzz FuzzParseProgram -fuzztime 60s ./internal/irtext/
	$(GO) test -run XXX -fuzz FuzzDecodeArtifact -fuzztime 60s -fuzzminimizetime 10s ./internal/store/
	$(GO) test -run XXX -fuzz FuzzKeyForBody -fuzztime 60s -fuzzminimizetime 10s ./cmd/treegiond/
	$(GO) test -run XXX -fuzz FuzzDecodeBody -fuzztime 60s -fuzzminimizetime 10s ./internal/api/

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
# and measure phases and us/block for liveness; the DDG build also under
# Figure 13's tree-td(2.0) with dominator parallelism (<tier>/fig13), and
# measurement also on one reused eval.Arena (<tier>/arena); the verifier's
# ir, rg, sc and sem rule families one-shot, and compiled, the whole
# verifier on one reused verify.Scratch, with ms/pass), the profiler per
# tier (BenchmarkColdProfile: the suite at the daemon's 100 trips, stress
# at its preset's trips, with ms/pass), the tgart2 store codec
# (BenchmarkColdStore in internal/store: encode and decode of the suite's
# headline results, with ms/pass) and the request decoder
# (BenchmarkColdDecode: decode and key the suite's /v1/compile bodies in
# perfbench's two service shapes and one batch body of them, with
# us/body), with allocation counts.
# Every benchmark runs five times (-count 5), so a capture shows its own
# spread: cmd/benchdiff prints each side's median and interquartile range.
# The raw `go test -json` stream is captured in BENCH_19.json for machine
# comparison against earlier runs (BENCH_18.json holds the capture from
# before the one-pass decoder replaced encoding/json for compile bodies).
# The parallel and stress benchmarks report speedup-vs-serial; on a
# single-core box that metric caps at ~1x by physics.
bench:
	$(GO) test -run XXX -bench 'BenchmarkCompileSuite|BenchmarkCompileStress|BenchmarkColdCompile|BenchmarkColdProfile|BenchmarkColdStore|BenchmarkColdDecode' -benchmem -benchtime 3x -count 5 -json . ./internal/store | tee BENCH_19.json

# bench-compare diffs two bench captures. benchstat is used when installed
# (fed plain text extracted from the JSON captures); otherwise the bundled
# dependency-free cmd/benchdiff prints each side's median and interquartile
# range and the delta, marking with "~" a delta inside the noise. Override
# the endpoints with BENCH_OLD= / BENCH_NEW=.
BENCH_OLD ?= BENCH_18.json
BENCH_NEW ?= BENCH_19.json
bench-compare:
	@if command -v benchstat >/dev/null 2>&1; then \
		$(GO) run ./cmd/benchdiff -extract $(BENCH_OLD) > /tmp/benchdiff_old.txt; \
		$(GO) run ./cmd/benchdiff -extract $(BENCH_NEW) > /tmp/benchdiff_new.txt; \
		benchstat /tmp/benchdiff_old.txt /tmp/benchdiff_new.txt; \
	else \
		$(GO) run ./cmd/benchdiff $(BENCH_OLD) $(BENCH_NEW); \
	fi

# bench-ab compares this working tree against revision OLD on the
# repository benchmark (perfbench/), the only comparison safe from host
# drift: scripts/bench_ab.sh checks OLD out into a git worktree under
# .bench_build/ab/ (removed on exit), runs PAIRS alternating old/new pairs
# of WORKLOAD at SEED for SECONDS each, and prints, for every end-to-end
# metric of BENCHMARK.json, each side's median and interquartile range and
# how many pairs the working tree won.
OLD ?= HEAD
WORKLOAD ?= verified
SEED ?= 11
PAIRS ?= 10
SECONDS ?= 20
bench-ab:
	bash scripts/bench_ab.sh $(OLD) $(WORKLOAD) $(SEED) $(PAIRS) $(SECONDS)

# lines counts Go lines as CHANGES.md reports them: .go files outside
# perfbench/ and any testdata/, production and _test.go apart, at revision
# OLD (from git) and in the working tree (untracked files included), with
# the differences. It needs only git and coreutils.
GO_PROD = -- '*.go' ':!*_test.go' ':!perfbench/*' ':!testdata/*' ':!*/testdata/*'
GO_TEST = -- '*_test.go' ':!perfbench/*' ':!testdata/*' ':!*/testdata/*'
lines:
	@sum() { n=$$(git grep -h -c "$$@" | paste -sd+ -); echo $$(( $${n:-0} )); }; \
	po=$$(sum '' $(OLD) $(GO_PROD)); pn=$$(sum --untracked '' $(GO_PROD)); \
	to=$$(sum '' $(OLD) $(GO_TEST)); tn=$$(sum --untracked '' $(GO_TEST)); \
	printf '%-10s %10s %12s %8s\n' 'Go lines' '$(OLD)' 'working tree' delta; \
	printf '%-10s %10d %12d %+8d\n' production $$po $$pn $$((pn - po)) test $$to $$tn $$((tn - to))

# check is the fast gate: lint + build + full tests, plus the race detector
# over the concurrency-heavy subsystems (artifact store with its tgart2
# codec tests, job queue, singleflight cache, daemon endpoints, telemetry
# registry, and the eval.Arena/ddg.Scratch/sched.Scratch reuse paths that
# each pipeline worker keeps across every function it compiles) and one
# racing pass over the hot-path micro-benchmarks.
# The pipeline's done-channel relay (workers close done[i], the caller emits
# in index order) races twenty times over, panics and cancellation included,
# and so do verifier panics, verified results served from the cache and
# inlining compiles, whose workers share one inline.Env.
# Eight identical cold /v1/compile requests, which coalesce on their request
# key before parsing, race ten times over.
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
	$(GO) test -race -count 20 -run 'CompileEach|PanicDropsWorkerArena|ContextCancellation|FirstErrorByIndex|VerifierPanic|VerifiedResults|CompileInline|EditedCallee' ./internal/pipeline/
	$(GO) test -race -count 10 -run TestConcurrentIdenticalColdRequests ./cmd/treegiond/
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

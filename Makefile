GO ?= go

# Perf-trajectory benchmarks (see DESIGN.md §Performance): size via
# METASCRITIC_BENCH_SCALE, select the completion / rank-sweep / propagation
# micro-benchmarks, record machine-readable results for later PRs to diff.
BENCH_SCALE ?= 0.05
BENCH_PATTERN = BenchmarkComplete|BenchmarkRankEstimate|BenchmarkPropagate$$|BenchmarkPropagateInto|BenchmarkRoutesToAll|BenchmarkVisibleLinks|BenchmarkRunMetro|BenchmarkRunAll|BenchmarkStore|BenchmarkEstimateHandler|BenchmarkSnapshotLoad|BenchmarkGenerate|BenchmarkEvolve|BenchmarkIncrementalRescore|BenchmarkSelectBatch
BENCH_PKGS = . ./internal/als ./internal/rank ./internal/bgp ./internal/obs ./internal/api ./internal/api/snapshot ./internal/engine ./internal/netsim ./internal/probe
BENCH_OUT ?= BENCH_PR10.json
BENCH_BASELINE ?=
# The most recent recorded report other than BENCH_OUT becomes the
# default baseline, so every new report carries before/after deltas
# against its predecessor (override with BENCH_BASELINE=<bench text>).
BENCH_PREV = $(lastword $(sort $(filter-out $(BENCH_OUT),$(wildcard BENCH_PR*.json))))
PROFILE_DIR ?= profiles

.PHONY: build test check bench bench-engine bench-100k bench-compare profile race-run race-measure race-obs race-bgp race-api race-netsim race-stream clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the pre-merge gate: vet everything, then run the engine
# package (and the rest of the tree) under the race detector. The
# engine runs metros concurrently over shared read-only state, so a
# race-clean pass is part of its contract. perfbench/ is a nested module
# that `go build ./...` never compiles, yet it reads the pipeline's
# Result, PhaseTimings and ALS API, so it is vetted here as well.
check:
	$(GO) vet ./...
	$(GO) -C perfbench vet ./...
	$(GO) test -race ./internal/engine/... ./...

# bench runs the hot-path micro-benchmarks at the CI trajectory scale and
# writes $(BENCH_OUT). The baseline defaults to the previous BENCH_PR*.json
# (so reports always carry before/after deltas); set BENCH_BASELINE to a
# prior run's text output to override.
# -p 1 serializes the per-package test binaries: by default go test
# runs them concurrently, which lets one package's benchmark contend
# with another's and inflates wall-clock numbers by 20-40%.
# (No pipe into tee here: under plain sh the pipeline would report
# tee's exit status and a benchmark failure would silently produce a
# partial report.)
bench:
	METASCRITIC_BENCH_SCALE=$(BENCH_SCALE) $(GO) test -p 1 -run '^$$' \
		-bench '$(BENCH_PATTERN)' -benchmem -benchtime 2s $(BENCH_PKGS) \
		> /tmp/metascritic_bench.txt || { cat /tmp/metascritic_bench.txt; exit 1; }
	cat /tmp/metascritic_bench.txt
	$(GO) run ./cmd/benchjson -in /tmp/metascritic_bench.txt \
		$(if $(BENCH_BASELINE),-before $(BENCH_BASELINE),$(if $(BENCH_PREV),-before-json $(BENCH_PREV))) \
		-scale $(BENCH_SCALE) -out $(BENCH_OUT)

bench-engine:
	$(GO) test -bench RunAll -benchtime 2x -run '^$$' ./internal/engine/

# bench-100k runs the opt-in Internet-scale end-to-end benchmark: one
# full RunMetro against a 100k-AS InternetMetros world under a bounded
# route-cache budget, reporting wall-clock, peak RSS and eviction
# counters (see runmetro100k_bench_test.go for the env knobs). Minutes
# of wall-clock on a single core — not part of `make bench`.
BENCH_100K_ASES ?= 100000
BENCH_100K_CACHE_MB ?= 256
bench-100k:
	METASCRITIC_BENCH_100K=1 METASCRITIC_BENCH_ASES=$(BENCH_100K_ASES) \
	METASCRITIC_BENCH_CACHE_MB=$(BENCH_100K_CACHE_MB) \
	$(GO) test -run '^$$' -bench 'BenchmarkRunMetro100k' -benchmem \
		-benchtime 1x -timeout 2h .

# bench-compare diffs the two most recent recorded reports and fails on
# a >10% wall-clock or >15% peak-RSS regression in any end-to-end
# benchmark (RunMetro / RunAll) — the pre-merge perf gate. When the
# newer report embeds a same-session baseline (bench run with
# BENCH_BASELINE=<bench text of the prior tree re-run on this machine>),
# the gate compares against that instead of the older report's
# absolutes, so hardware drift between recording sessions cannot fake a
# regression.
bench-compare:
	@set -- $$(ls BENCH_PR*.json 2>/dev/null | sort -V | tail -n 2); \
	if [ $$# -lt 2 ]; then echo "bench-compare: need at least two BENCH_PR*.json reports"; exit 1; fi; \
	echo "comparing $$1 -> $$2"; \
	$(GO) run ./cmd/benchjson -compare -rss-threshold 0.15 $$1 $$2

# profile captures CPU and heap profiles from a scaled-down end-to-end
# RunAll batch, plus the test binary pprof needs to symbolize them:
#	go tool pprof $(PROFILE_DIR)/engine.test $(PROFILE_DIR)/runall.cpu.pprof
profile:
	mkdir -p $(PROFILE_DIR)
	METASCRITIC_BENCH_SCALE=0.15 $(GO) test -run '^$$' \
		-bench 'BenchmarkRunAll/metros=4/workers=4' -benchtime 3x \
		-cpuprofile $(PROFILE_DIR)/runall.cpu.pprof \
		-memprofile $(PROFILE_DIR)/runall.mem.pprof \
		-o $(PROFILE_DIR)/engine.test ./internal/engine/

# race-run vets and races the end-to-end run path: one multi-metro batch
# and the speculative single-metro pipeline, both under the race
# detector at a small but non-trivial scale.
race-run:
	$(GO) vet . ./internal/engine/
	METASCRITIC_BENCH_SCALE=0.15 $(GO) test -race -run '^$$' \
		-bench 'BenchmarkRunAll/metros=4/workers=4|BenchmarkRunMetro' \
		-benchtime 1x . ./internal/engine/

# race-measure exercises the speculative measurement pipeline (fan-out,
# ordered commit, prefetch, parallel tune/eval helpers) under the race
# detector — the concurrency contract of measure.go is part of tier-1.
race-measure:
	$(GO) test -race . ./internal/traceroute/ ./internal/engine/ \
		./internal/als/ ./internal/eval/ ./internal/mat/

# race-obs exercises the evidence layer's copy-on-write snapshots under
# the race detector: concurrent Clones plus divergent base/snapshot
# mutation (the engine's isolation pattern) must be race-free.
race-obs:
	$(GO) test -race ./internal/obs/

# race-bgp exercises the routing substrate's concurrency contract: the
# sharded route cache's singleflight, the batched RoutesToAll fan-out on
# overlapping destination sets, and per-worker propagation scratches.
race-bgp:
	$(GO) test -race ./internal/bgp/

# race-api exercises the serving daemon under the race detector: readers
# on the atomically-swapped State while runs commit, middleware
# coalescing/limiting, and the run manager's drain/cancel paths.
race-api:
	$(GO) test -race ./internal/api/... ./internal/engine/ ./cmd/metascriticd/

# race-netsim exercises the parallel world-generation path (metro-bucketed
# candidate enumeration over the worker pool) under the race detector,
# including the worker-count invariance test at several pool sizes.
race-netsim:
	$(GO) test -race ./internal/netsim/ ./internal/asgraph/ ./internal/graphmetrics/

# race-stream vets and races the streaming path end to end: netsim
# evolution (replayable EventBatches), obs epoch advance / windowed
# refresh, the root Evolve/Rescore composition, and the daemon's ingest
# endpoint serving readers while churn is absorbed.
race-stream:
	$(GO) vet ./internal/netsim/ ./internal/obs/ ./internal/api/... .
	$(GO) test -race -run 'Evolve|Epoch|Stale|Stream|Rescore|Ingest' \
		./internal/netsim/ ./internal/obs/ ./internal/api/... .

clean:
	$(GO) clean ./...

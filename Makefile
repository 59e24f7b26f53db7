GO ?= go

# Micro-benchmarks and the performance gate (see DESIGN.md §7.9). bench
# runs the completion / rank-sweep / propagation micro-benchmarks, sized
# via METASCRITIC_BENCH_SCALE; bench-compare runs the repository benchmark
# (BENCHMARK.json) on $(BASE) and on the working tree.
BENCH_SCALE ?= 0.05
BENCH_PATTERN = BenchmarkComplete|BenchmarkRankEstimate|BenchmarkPropagate$$|BenchmarkPropagateInto|BenchmarkRoutesToAll|BenchmarkVisibleLinks|BenchmarkRunMetro|BenchmarkRunAll|BenchmarkStore|BenchmarkEstimateHandler|BenchmarkSnapshotLoad|BenchmarkGenerate|BenchmarkEvolve|BenchmarkIncrementalRescore|BenchmarkSelectBatch
BENCH_PKGS = . ./internal/als ./internal/rank ./internal/bgp ./internal/obs ./internal/api ./internal/api/snapshot ./internal/engine ./internal/netsim ./internal/probe
BASE ?= HEAD
PAIRS ?= 10
PROFILE_DIR ?= profiles

.PHONY: build test check bench bench-engine bench-100k bench-compare profile race-run clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the pre-merge gate: fail on any file gofmt would rewrite, vet
# everything, then run the whole tree under the race detector. Every
# fan-out (par.For) runs over shared read-only state, so a race-clean
# pass is part of the pipeline's contract. perfbench/ is a nested module
# that `go build ./...` never compiles, yet it reads the pipeline's
# Result, PhaseTimings and ALS API, so it is vetted here as well.
check:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) -C perfbench vet ./...
	$(GO) test -race ./...

# bench runs the hot-path micro-benchmarks at METASCRITIC_BENCH_SCALE and
# prints go test's report. -p 1 serializes the per-package test binaries:
# by default go test runs them concurrently, which lets one package's
# benchmark contend with another's and inflates wall-clock numbers by
# 20-40%. Its ns/op are one session's means; compare two trees with
# bench-compare.
bench:
	METASCRITIC_BENCH_SCALE=$(BENCH_SCALE) $(GO) test -p 1 -run '^$$' \
		-bench '$(BENCH_PATTERN)' -benchmem -benchtime 2s $(BENCH_PKGS)

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

# bench-compare is the pre-merge perf gate: $(PAIRS) alternating pairs of
# the repository benchmark on $(BASE) and on the working tree, in one
# session. It fails when an end-to-end metric's bootstrap CI lies wholly
# beyond its BENCHMARK.json bound on the worse side, a run fails its
# correctness checks, or the working tree fails more operations.
bench-compare:
	$(GO) run ./cmd/benchab -base $(BASE) -pairs $(PAIRS)

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
# detector at a small but non-trivial scale. check runs no benchmarks,
# so this is the one race pass over them.
race-run:
	$(GO) vet . ./internal/engine/
	METASCRITIC_BENCH_SCALE=0.15 $(GO) test -race -run '^$$' \
		-bench 'BenchmarkRunAll/metros=4/workers=4|BenchmarkRunMetro' \
		-benchtime 1x . ./internal/engine/

clean:
	$(GO) clean ./...

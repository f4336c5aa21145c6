# GroupTravel build/test entry points. `make ci` is what a CI runner (or a
# reviewer) should run: vet + build + race-enabled tests + the macro
# benchmark's smoke suite. macrobench is its own module, so the root
# `go build ./...` never compiles it: a server or router API change can
# break the benchmark while every root target stays green.

GO ?= go

.PHONY: all build vet test race lint bench benchfull benchcompare macro-smoke ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# -race covers every package, which pointedly includes the replication
# suite (internal/server/replication_test.go, internal/replicate) and
# the front-tier routing suite (internal/router): the replication
# convergence test runs a concurrent workload against a live tailer, and
# TestRouterReadYourWritesUnderLag drives concurrent clients through the
# router over a primary plus two lagging followers — exactly the kind of
# code the race detector exists for.
race:
	$(GO) test -race ./...

# Static analysis beyond vet: staticcheck and govulncheck run when they
# are installed (CI images, developer machines with the tools), and are
# skipped — loudly — when not, so `make lint` never depends on network
# access to fetch a binary.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not installed; skipped"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "lint: govulncheck not installed; skipped"; fi

# Smoke check: run every Benchmark* a handful of times so the bench
# harness (package-build scaling, server + multi-city throughput,
# log-shipping apply rate, paper tables) cannot bit-rot unnoticed, and
# convert the output into the machine-readable BENCH_$(BENCH_GEN).json
# trajectory file (benchmark -> ns/op, B/op, allocs/op, stamped with
# commit/date/go version). 3 iterations, not 1: a single iteration
# records cold caches and makes the recorded number useless as a
# baseline. `make benchfull` takes real measurements and rewrites the
# same file. `make benchcompare` gates the fresh file against the
# previous generation's committed baseline: drift beyond 15% is printed
# as a warning (smoke runs are noisy), growth beyond 2x fails.
BENCH_GEN ?= 14
BENCH_BASE ?= BENCH_10.json

bench:
	$(GO) test -bench . -benchtime=3x -benchmem -run XXX . > bench.out || (cat bench.out; rm -f bench.out; exit 1)
	$(GO) run ./cmd/benchjson -o BENCH_$(BENCH_GEN).json < bench.out
	@rm -f bench.out

benchfull:
	$(GO) test -bench . -benchmem -run XXX . > bench.out || (cat bench.out; rm -f bench.out; exit 1)
	$(GO) run ./cmd/benchjson -o BENCH_$(BENCH_GEN).json < bench.out
	@rm -f bench.out

# Macro smoke: macrobench's own suite (its own module), including
# TestSmoke — the full topology (primary, streaming follower, edge-cached
# router) driven briefly through each of the browse, plan and customize
# workloads — so the benchmark BENCHMARK.json runs cannot bit-rot
# unnoticed. Real measurements: bash macrobench/run.sh (see README).
macro-smoke:
	cd macrobench && $(GO) test ./...

benchcompare:
	-$(GO) run ./cmd/benchjson -compare -tolerance 15 $(BENCH_BASE) BENCH_$(BENCH_GEN).json
	$(GO) run ./cmd/benchjson -compare -tolerance 100 $(BENCH_BASE) BENCH_$(BENCH_GEN).json

ci: lint build race macro-smoke

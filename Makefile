# Developer workflow. `make ci` is what every PR must pass: vet, the
# rarlint static analyzer, build, the full test suite under the race
# detector — the memoizing simulation engine is concurrency-heavy, so
# -race is not optional — and the repository benchmark's own tests.

GO ?= go

.PHONY: ci vet lint sarif build test race rarbench-test bench bench-smoke serve-smoke microbench clean

ci: vet lint build race rarbench-test

vet:
	$(GO) vet ./...

# All nine checks (run concurrently after the shared type-check
# load), with the repo's own _test.go files loaded too;
# exits 1 on any finding, including malformed or stale directives.
# vet rides along so `make lint` alone is the full static gate.
lint: vet
	$(GO) run ./cmd/rarlint -tests ./...

# SARIF log for GitHub code scanning; exit code deliberately ignored
# (the lint target is the gate, this is the upload artifact).
sarif:
	$(GO) run ./cmd/rarlint -sarif -tests ./... > rarlint.sarif || true

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# rarbench-test runs the repository benchmark's tests (_rarbench), which
# check the golden Stats hashes of all three workloads at tiny sizes.
# `./...` skips the directory: its leading underscore hides it from Go
# package patterns.
rarbench-test:
	cd _rarbench && $(GO) test -race .

# bench runs the tracked perf harness (cmd/bench): per-cell and per-chip
# simulated instructions/second, per-class aggregates and matrix
# throughput, written to BENCH_core.json at the repo root.
bench:
	$(GO) run ./cmd/bench -o BENCH_core.json

# bench-smoke is the CI variant: one quick iteration, schema validated,
# output discarded — proves the harness runs, measures nothing. It runs
# race-instrumented so the batched synthesis refill path (block buffer
# shared between fetch and the generator) gets -race coverage on every
# PR, not just when someone remembers `make race`.
bench-smoke:
	$(GO) run -race ./cmd/bench -quick -o -

# serve-smoke stands up rarserved (race-instrumented, ephemeral port),
# drives it with rarload's hot/cold mix, and fails on any request error,
# missing cross-request dedup, a warm wave that re-simulates, or an
# unclean SIGTERM drain.
serve-smoke:
	./scripts/serve_smoke.sh

# microbench runs the tracked go-test microbenchmarks: the root engine
# benchmarks, the block-vs-scalar uop synthesis pair in internal/trace,
# and the warmed-window stage-loop benchmarks in internal/core.
microbench:
	$(GO) test -bench=. -benchmem -run=^$$ . ./internal/trace ./internal/core

clean:
	rm -rf results/cache

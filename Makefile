GO ?= go

.PHONY: ci fmt vet lint build test race bench bench-smoke demo-persist test-wire smoke-multiproc fuzz-smoke e2ebench-check

ci: fmt vet lint build race

fmt:
	@unformatted=$$(gofmt -s -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -s needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Project-invariant analyzers (stdlib-only, see docs/ANALYZERS.md):
# deadlock, determinism, metricnames (the former scripts/check_metrics.sh)
# and wireerr. Non-zero exit on any unsuppressed finding.
lint:
	$(GO) run ./cmd/fabriccrdt-lint ./...

build:
	$(GO) build ./...

# vet and lint are part of the tier-1 gate: test and race refuse to run
# on code that does not pass both.
test: vet lint
	$(GO) test ./...

race: vet lint
	$(GO) test -race ./...

# Wire-transport gate: the transport conformance suite against BOTH
# implementations (in-process Node and TCP wire client/server) under
# -race, Chaos fault modes included; the network-level wire + Err-split
# regressions; and the multi-process tests (real orderer/peer/client
# processes over loopback sockets, kill -9 recovery to byte-identical
# state).
test-wire: vet
	$(GO) test -race ./internal/transport/... ./internal/wire/...
	$(GO) test -race -run 'TestWire|TestDeliverLoopHealsSeveredStream|TestCommitErrorIsFatalNotRetried' ./internal/fabricnet
	$(GO) test -run TestMultiProcess ./cmd/fabricnet

# Just the multi-process smoke: spawn orderer + peer binaries, submit
# transactions over real sockets, assert the committed height, and scrape
# the live peer's /metrics + /healthz (failing on malformed exposition).
# CI runs this as its own step so a wire regression is named in the job
# log.
smoke-multiproc:
	$(GO) test -run TestMultiProcessSmoke -v ./cmd/fabricnet

BENCHES = 'BenchmarkCommitPipeline|BenchmarkCommitBackends|BenchmarkCommitChannels|BenchmarkCommitAsync|BenchmarkCommitLSMCache'

# Commit-pipeline benchmark; refreshes BENCH_commit.json.
bench:
	$(GO) test -run xxx -bench $(BENCHES) -benchtime=20x .

# One quick pass of the commit benchmark per state backend (memory, disk
# with and without the block store, lsm), the worker sweep, the
# channel-scaling sweep (1/2/4/8 channels), the async-pipeline depth sweep
# (0/1/2/4) and the LSM block-cache pair (dataset larger than the cache vs
# inside it) — enough for CI to refresh and archive BENCH_commit.json
# without a long benchmark run.
bench-smoke:
	$(GO) test -run xxx -bench $(BENCHES) -benchtime=3x .

# Short-budget coverage-guided fuzzing of the decoders of untrusted bytes —
# the wire-frame decoder, the LSM sorted-run block decoder and the
# persisted JSON CRDT document state — enough for CI to catch a decoder
# regression without a long fuzz run.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzReadFrame -fuzztime 10s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzRunDecode -fuzztime 10s ./internal/statedb
	$(GO) test -run xxx -fuzz FuzzDocState -fuzztime 10s ./internal/jsoncrdt

# The end-to-end benchmark (e2ebench/) is its own Go module, so the root
# build, vet, lint and tests never compile it: vet and test it on its own,
# against this checkout's packages.
e2ebench-check:
	cd e2ebench && $(GO) vet . && $(GO) test .

# One short live-network run with durable peers and the block store on,
# against a throwaway datadir — proves the -backend disk -persist-blocks
# path end to end (CI runs this).
demo-persist:
	$(GO) run ./cmd/fabricnet -txs 60 -rate 600 -block 10 -clients 2 \
		-backend disk -datadir $$(mktemp -d) -persist-blocks

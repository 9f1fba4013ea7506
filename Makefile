# Tier-1 check: must stay green on every commit.
.PHONY: test
test:
	go build ./...
	go test ./...

# Tier-2 check: full suite under the race detector. The parallel layer
# (internal/parallel and everything built on it) must pass this clean;
# run it before merging any change that touches a parallel.For body.
.PHONY: race
race:
	go test -race ./...

# Everything CI runs, in CI's order. Mirrors .github/workflows/ci.yml so
# the gate is reproducible locally with one command. bench/ is its own
# module importing the internals, so the root ./... patterns neither
# compile nor test it: it gets its own line, or an internal rename first
# fails inside the benchmark driver.
.PHONY: ci
ci:
	gofmt -l . | (! grep .) || (echo "gofmt: files need formatting" && exit 1)
	go vet ./...
	go build ./...
	go test ./...
	cd bench && go vet . && go test .
	go test -race ./internal/offload/... ./internal/train ./internal/parallel ./internal/nn ./internal/freqdomain ./internal/netfaults

# Micro-benchmarks of the parallel hot paths; scripts/bench.sh wraps
# this and records results into BENCH_parallel.json.
.PHONY: bench
bench:
	go test -run '^$$' -bench 'BenchmarkGemm|BenchmarkQuantizeBlocks|BenchmarkReconstructBlocks|BenchmarkRoundtripZVC|BenchmarkCompressJPEGACT|BenchmarkTrainStep' -benchmem ./...

# Sync-vs-async offload wall-clock over the simulated DMA channel;
# writes BENCH_offload.json at the repo root and fails if the async
# trajectory diverges from sync.
.PHONY: bench-offload
bench-offload:
	go run ./cmd/offloadbench > BENCH_offload.json
	@grep -E 'speedup|trajectory' BENCH_offload.json

# Data-parallel replica scaling sweep (K=1,2,4 over the gradient
# exchange); writes BENCH_dataparallel.json at the repo root and fails
# if any replica count diverges from K=1's weights bit-for-bit.
.PHONY: bench-dp
bench-dp:
	go run ./cmd/offloadbench -dp -dp-replicas 1,2,4 > BENCH_dataparallel.json
	@grep -E 'replicas|speedup|weights_match' BENCH_dataparallel.json

# Fuzz sweep: every decoder fuzz target for 10s each. Go runs one fuzz
# target per invocation, so loop over the discovered names in each fuzzed
# package. The decoders facing untrusted bytes — the offload container
# (FuzzDecodeFrame), the coefficient-plane restore
# (FuzzDecodeCoefficients), the activation-store request path
# (FuzzNetstoreRequest) and the client's response parser
# (FuzzWireResponse) — must survive arbitrary input without a panic.
FUZZTIME ?= 10s
FUZZPKGS = ./internal/coding/ ./internal/offload/codec/ ./internal/offload/netstore/ ./internal/offload/transport/
.PHONY: fuzz
fuzz:
	@for pkg in $(FUZZPKGS); do \
		for t in $$(go test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "== $$pkg $$t"; \
			go test -run '^$$' -fuzz "^$$t$$" -fuzztime=$(FUZZTIME) $$pkg || exit 1; \
		done; \
	done

.PHONY: fmt
fmt:
	gofmt -l -w .

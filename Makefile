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

# Everything CI runs: the workflow's test job is `make ci` and nothing
# else, so the gate is this recipe, locally and there. bench/ is its own
# module importing the internals, so the root ./... patterns neither
# compile nor test it: it gets its own line, or an internal rename first
# fails inside the benchmark driver. One file in the tree is tied to an
# architecture, internal/nn/gemm_amd64.s (native `go vet` checks its
# frames against the Go declarations); the arm64 cross-build keeps every
# other platform on the portable GEMM kernel compiling, and the line after
# it keeps the module unfused where the compiler does fuse x*y+z: no fused
# multiply-add, single or double, may appear in the arm64 code compiled
# from any file of the root module, wherever it is inlined. GOAMD64=v3 runs
# internal/nn's bit-identity tests on the newer instruction selection
# (go1.24 fuses nothing there; the step is for the release that does).
# loc-check holds the root module's non-test line count at the number next
# to the `loc` target: not above it, and not more than 25 below it.
# bench-check holds the `bench` target to the benchmarks that exist, and
# fuzz-check every fuzz target to a committed corpus. The last line is the whole tree under
# the race detector: the offload scheduler and transport, the netstore
# server, the training loop driving them, the worker pool, and the
# process tests in cmd/ and examples/, which build their binaries with the
# race detector too.
.PHONY: ci
ci:
	gofmt -l . | (! grep .) || (echo "gofmt: files need formatting" && exit 1)
	$(MAKE) -s loc-check
	go vet ./...
	go build ./...
	GOARCH=arm64 go build ./... && GOARCH=arm64 go vet ./...
	! (GOARCH=arm64 go build -gcflags=-S ./... 2>&1 | grep -E 'FN?M(ADD|SUB)[SD]')
	go test ./...
	$(MAKE) -s bench-check
	$(MAKE) -s fuzz-check
	GOAMD64=v3 go test ./internal/nn/
	cd bench && go vet . && go test .
	go test -race ./...

# Micro-benchmarks of the parallel hot paths, for measuring while you
# work. Committed numbers come from one harness only: `bash bench/run.sh`
# (see bench/README.md). The fork-join itself comes first: one 32-chunk
# parallel.For of ≈ 1 µs chunks, back to back and after a 1 ms idle gap,
# in µs per call, so the wake cost is seen under every layer. The nn layers run at the bench model's four stage
# shapes: conv against its GEMM leaf rate, ReLU and batch norm in GB/s of
# their activation. Every codec kernel is named at the density it
# meets: the ZVC coders flat at ≈ 45% non-zero (ReLU codes) and by block
# at ≈ 78% (DCT coefficients), BRC on coin-flip signs, the AAN transforms,
# and each codec kind end to end through codec.Pipeline and the frame.
# The store path runs alone too: one window-8 client's offload life cycle
# of real frames against a netstore server on a unix socket.
BENCH_RE = BenchmarkFor$$|BenchmarkGemm|BenchmarkConv|BenchmarkReLU|BenchmarkBatchNorm|BenchmarkQuantizeBlocks|BenchmarkReconstructBlocks|BenchmarkCompressJPEGACT|BenchmarkTrainStep|BenchmarkEncodeZVC$$|BenchmarkDecodeZVC$$|BenchmarkEncodeBRC|BenchmarkAAN|BenchmarkCodecEncode|BenchmarkCodecDecode|BenchmarkStoreRoundTrip
.PHONY: bench
bench:
	go test -run '^$$' -bench '$(BENCH_RE)' -benchmem ./...

# The bench target's guard: each alternative of BENCH_RE must match a
# benchmark of the root module (`go test -list`), so a benchmark renamed
# or deleted takes its name out of the regex in the same change.
.PHONY: bench-check
bench-check:
	@names=$$(go test -list '^Benchmark' ./... | grep '^Benchmark'); \
	for re in $$(echo '$(BENCH_RE)' | tr '|' ' '); do \
		echo "$$names" | grep -qE "$$re" || { echo "bench: $$re matches no benchmark"; exit 1; }; \
	done

# Fuzz sweep: every fuzz target for 10s each. Go runs one fuzz target per
# invocation, so loop over the discovered names in each fuzzed package;
# FUZZPKGS is every directory of the root module with a _test.go file
# declaring a Fuzz* target, so a new target cannot be left out. The
# targets are the decoders facing untrusted bytes — the offload container
# (FuzzDecodeFrame), the activation decode every restore runs, whose
# Decode and DecodeInto must also agree (FuzzDecodeActivation), the
# coefficient and gradient decodes (FuzzDecodeCoefficients,
# FuzzDecodeGradient), the entropy coders (FuzzDecodeJPEGBlocks,
# FuzzDecodeZVC, FuzzDecodeRLE, FuzzDecodeBRC, FuzzDecodeCSR), the
# activation-store request path (FuzzNetstoreRequest) and the client's
# response parser (FuzzWireResponse), which must survive arbitrary input
# without a panic — plus the fused-vs-unfused block path over arbitrary
# shapes (FuzzFusedBlockPath).
FUZZTIME ?= 10s
FUZZFILES = $(shell grep -rl --include='*_test.go' --exclude-dir=bench '^func Fuzz' .)
FUZZPKGS = $(sort $(dir $(FUZZFILES)))
.PHONY: fuzz
fuzz:
	@for pkg in $(FUZZPKGS); do \
		for t in $$(go test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "== $$pkg $$t"; \
			go test -run '^$$' -fuzz "^$$t$$" -fuzztime=$(FUZZTIME) $$pkg || exit 1; \
		done; \
	done

# The fuzz target's guard: every Fuzz* target starts from a committed
# corpus, at least one file under its package's testdata/fuzz/<name>/, so
# the plain test run replays more than the f.Add seeds.
.PHONY: fuzz-check
fuzz-check:
	@for f in $(FUZZFILES); do \
		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			ls $$(dirname $$f)/testdata/fuzz/$$t/* >/dev/null 2>&1 || { echo "fuzz: $$t in $$(dirname $$f) has no corpus under testdata/fuzz/$$t/"; exit 1; }; \
		done; \
	done

# The size direction 4 of ROADMAP.md tracks: non-test, non-comment,
# non-blank Go lines of the root module (bench/ is its own module).
.PHONY: loc
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l

# The ratchet: `make ci` (and so the workflow) fails when `make -s
# loc` exceeds LOC_MAX, so "less code" is enforced the way gofmt is — and
# when LOC_MAX is more than LOC_SLACK above it, so a PR that lands below
# the ratchet lowers it to where it landed; one that must raise it says
# why in CHANGES.md.
LOC_MAX = 11283
LOC_SLACK = 25
.PHONY: loc-check
loc-check:
	@n=$$($(MAKE) -s loc); \
	[ $$n -le $(LOC_MAX) ] || { echo "loc: $$n non-test lines in the root module, the ratchet is $(LOC_MAX)"; exit 1; }; \
	[ $$(($(LOC_MAX) - n)) -le $(LOC_SLACK) ] || { echo "loc: $$n non-test lines, more than $(LOC_SLACK) below the ratchet: set LOC_MAX = $$n in the Makefile"; exit 1; }

.PHONY: fmt
fmt:
	gofmt -l -w .

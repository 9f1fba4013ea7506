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
# it keeps internal/nn unfused where the compiler does fuse x*y+z: no
# fused multiply-add, single or double, may appear in the arm64 code of
# any of the package's files. GOAMD64=v3 runs
# internal/nn's bit-identity tests on the newer instruction selection
# (go1.24 fuses nothing there; the step is for the release that does).
# loc-check holds the root module's non-test line count at the number next
# to the `loc` target: not above it, and not more than 25 below it. The last line is the whole tree under
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
	! (GOARCH=arm64 go build -gcflags=-S ./internal/nn/ 2>&1 | grep 'internal/nn/' | grep -E 'FN?M(ADD|SUB)[SD]')
	go test ./...
	GOAMD64=v3 go test ./internal/nn/
	cd bench && go vet . && go test .
	go test -race ./...

# Micro-benchmarks of the parallel hot paths, for measuring while you
# work. Committed numbers come from one harness only: `bash bench/run.sh`
# (see bench/README.md). Every codec kernel is named at the density it
# meets: the ZVC coders flat at ≈ 45% non-zero (ReLU codes) and by block
# at ≈ 78% (DCT coefficients), BRC on coin-flip signs, the AAN transforms,
# and each codec kind end to end through codec.Pipeline and the frame.
.PHONY: bench
bench:
	go test -run '^$$' -bench 'BenchmarkGemm|BenchmarkConv|BenchmarkQuantizeBlocks|BenchmarkReconstructBlocks|BenchmarkRoundtripZVC|BenchmarkCompressJPEGACT|BenchmarkTrainStep|BenchmarkEncodeZVC$$|BenchmarkDecodeZVC$$|BenchmarkEncodeBRC|BenchmarkAAN|BenchmarkCodecEncode|BenchmarkCodecDecode' -benchmem ./...

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
LOC_MAX = 11510
LOC_SLACK = 25
.PHONY: loc-check
loc-check:
	@n=$$($(MAKE) -s loc); \
	[ $$n -le $(LOC_MAX) ] || { echo "loc: $$n non-test lines in the root module, the ratchet is $(LOC_MAX)"; exit 1; }; \
	[ $$(($(LOC_MAX) - n)) -le $(LOC_SLACK) ] || { echo "loc: $$n non-test lines, more than $(LOC_SLACK) below the ratchet: set LOC_MAX = $$n in the Makefile"; exit 1; }

.PHONY: fmt
fmt:
	gofmt -l -w .

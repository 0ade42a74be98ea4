GO ?= go

.PHONY: all build test race vet fmt lint check bench bench-smoke bench-nrhs clean obs-smoke service-smoke crash-drill cluster-drill chaos prof-overhead-guard fuzz-smoke

all: check

build:
	$(GO) build ./...

# The bench/ harness is its own module (root `go test ./...` skips it) but
# compiles against the solver API, so its tests run here too.
test:
	$(GO) test ./...
	cd bench && $(GO) test -short ./...

race:
	$(GO) test -race ./...

# The second pass vets the module for arm64, so the Go row loop that every
# GOARCH without internal/sparse's amd64 assembly body runs keeps compiling;
# on amd64, vet's asmdecl checks the assembly's frame offsets.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	cd bench && $(GO) vet ./...

# Formatting gate: fails listing the unformatted files (fix with gofmt -w).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt: files need formatting:"; echo "$$out"; exit 1; fi

# staticcheck when installed, a loud skip when not — no new dependencies.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping"; fi

check: fmt build lint test race

bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# Quick pass over the hot-path kernel benchmarks (docs/performance.md): a
# few iterations each, -benchmem so an alloc regression in the steady-state
# solve loop shows up as non-zero allocs/op. BenchmarkSpMVBody times the A,
# G and Gᵀ sweeps of lap64x64 and Laplace3D(48,48,48) on the Go row loop
# and on the amd64 assembly one, so its go/asm lines give the kernel ratio.
# The FSAI setup benchmarks
# follow, so setup allocs/op print beside the kernels (setup allocates, but
# not per row: TestSetupAllocsIndependentOfRows), then the store's factor
# encode, where a growth copy of the entry shows up as extra allocs/op,
# and fsaid's decode of a 4,096-value solve body beside json.Unmarshal.
bench-smoke:
	$(GO) test -run '^$$' -bench 'SpMV|FusedBlas1|BlockPCGIteration|EngineDot' \
		-benchtime 10x -benchmem \
		./internal/sparse/ ./internal/kernels/ ./internal/krylov/
	$(GO) test -run '^$$' -bench '^BenchmarkSetup' -benchtime 10x -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench '^BenchmarkEncodeFactor$$' -benchtime 10x -benchmem ./internal/store/
	$(GO) test -run '^$$' -bench '^BenchmarkParseSolveRequest$$' -benchtime 10x -benchmem ./internal/service/

# Multi-RHS bitwise check (docs/performance.md, "Batched solving"): the
# SpMM and block-PCG benchmarks across block widths, plus the fsaibench
# -nrhs campaign, which exits 1 unless every block solve column is
# bit-identical to its scalar solve. Writes no files.
bench-nrhs:
	$(GO) test -run '^$$' -bench 'SpMM|BlockPCGIteration' \
		-benchtime 10x -benchmem ./internal/sparse/ ./internal/krylov/
	$(GO) run ./cmd/fsaibench -nrhs 8

# Start fsaisolve with the observability server on a generated matrix,
# scrape /metrics, /debug/solve (incl. SSE), /debug/pprof/ and /runs, and
# check the run report's iterations, nnz(G) and convergence against the
# golden reference run.
obs-smoke:
	./scripts/obs_smoke.sh

# Start the fsaid solve daemon on a free port, register a matrix, run a
# cold then a warm solve, and assert the preconditioner cache made the warm
# solve skip setup (plus 429 backpressure and graceful shutdown).
service-smoke:
	./scripts/service_smoke.sh

# Crash-recovery drill: cold solve into a durable -data-dir, SIGKILL the
# daemon mid-solve, restart and assert a warm bit-identical solve from the
# recovered store, then bit-flip the stored factor and assert it is
# quarantined without taking the daemon down (docs/robustness.md).
crash-drill:
	./scripts/crash_drill.sh

# Distributed-fleet drill: three store-backed shards behind a consistent-hash
# router, register/solve through the router, hot-factor replication to the
# replica, SIGKILL the primary mid-traffic with zero failed client requests
# and a bit-identical failover solve, shard restart and rebalance, and warm
# routed and direct replica solves (docs/cluster.md).
cluster-drill:
	./scripts/cluster_drill.sh

# Continuous-profiling overhead gate (docs/observability.md): measure the
# sampler's per-window bookkeeping under load and fail if the projected
# overhead at the default window/gap cadence reaches 2%. Run without -short
# (the test skips under -short); -count=1 defeats the test cache so the
# timing is from this machine, now.
prof-overhead-guard:
	$(GO) test -run 'TestSamplerOverheadBudget' -count=1 -v ./internal/prof/

# Fault-injection chaos suite: seeded injectors corrupting SpMV outputs,
# diagonals and computed factors, with the recovery chain proving detection,
# attribution and recovery under the race detector (docs/robustness.md).
chaos:
	$(GO) test -race -count=1 ./internal/faultinject/ ./internal/resilience/ \
		./internal/krylov/ ./internal/parallel/

clean:
	$(GO) clean ./...

# Fuzz smoke: each of the ten native fuzz targets runs for 10s on top of
# its seed corpus. Nine feed untrusted bytes (MatrixMarket files, store
# entry envelopes and payloads, registration and solve request bodies, the
# traceparent, Retry-After and X-Fsaid-Deadline-Ms headers, and the body
# and headers the cluster router forwards) to the decoders and assert they
# never panic, only return structurally valid matrices with finite values,
# accept only envelopes seal writes, accept only registrations naming a
# known matgen spec with nothing after the object, accept only solve
# requests with in-range knobs and a timeout that fits a time.Duration that
# survive a marshal/decode round trip and, when the fast decoder took them,
# decode to the same bits through json.Unmarshal, accept only traceparents
# that round-trip, keep Retry-After waits within [0, 2^31 s], accept a
# deadline exactly when 0 < ms <= MaxInt64/1e6, and forward a body
# byte-for-byte with only the allowlisted headers each way. The tenth,
# FuzzSpMVBody, decodes CSRs, well formed or not, and asserts the SpMV row
# loop's assembly body matches its Go body: the same panic or the same y.
# -fuzz takes one target per invocation.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime 10s ./internal/mmio/
	$(GO) test -run '^$$' -fuzz '^FuzzSpMVBody$$' -fuzztime 10s ./internal/sparse/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePayload$$' -fuzztime 10s ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzOpenFile$$' -fuzztime 10s ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzParseTraceparent$$' -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzParseRetryAfter$$' -fuzztime 10s ./internal/service/client/
	$(GO) test -run '^$$' -fuzz '^FuzzForwardEnvelope$$' -fuzztime 10s ./internal/service/client/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRegisterRequest$$' -fuzztime 10s ./internal/service/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSolveRequest$$' -fuzztime 10s ./internal/service/
	$(GO) test -run '^$$' -fuzz '^FuzzDeadlineHeader$$' -fuzztime 10s ./internal/service/

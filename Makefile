GO ?= go

.PHONY: all build test race vet fmt lint lint-go opt-report ci bench bench-baseline bench-check fuzz-smoke cover stress

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# stress hammers the parallel-engine determinism tests under the race
# detector with repeated runs on a deterministic seed subset: the worker
# pool's edge cases, and the worker-count invariance crossing with
# recovering-fault and corruption plans. Goroutine schedules differ on
# every -count repetition, so 20 repetitions explore 20 interleavings of
# the same virtual-time schedule. The GPU map kernel's threadblock
# goroutines share one launch image, and its goldens and host-capture
# tests run several blocks, some over copied globals.
stress:
	$(GO) test -race -count=20 ./internal/sim -run 'Pool|Task|Cancel|RunUntil|Wait|Discard|Close'
	$(GO) test -race -count=20 ./internal/testkit -run 'TestWorkerInvarianceUnder'
	$(GO) test -race -count=20 ./internal/gpurt -run 'TestGPUVirtualTimeGolden|TestHostCapture'

# vet also covers hostbench/, a separate module (its go.mod replaces
# repro with ..) that the root ./... pattern never compiles.
vet:
	$(GO) vet ./...
	$(GO) -C hostbench vet ./...

# fmt fails if any file needs reformatting (CI gate); run `gofmt -w .` to fix.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint runs go vet plus hdlint (the directive/dataflow/GPU-safety analyzer)
# over the built-in benchmark programs and the example MiniC sources.
# hdlint exits non-zero on warning- or error-severity findings.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/hdlint -q -benchmarks
	$(GO) run ./cmd/hdlint -q examples/minic/*.c

# lint-go runs the determinism linter over the packages whose outputs
# must be bit-reproducible (no math/rand, no time.Now, no unsorted map
# iteration); see tools/detlint. It type-checks each package, and what
# it imports, from source, so it sees every range over a map whichever
# package declares the map's type. internal/interp, internal/bytecode and
# internal/streaming are the MiniC stage packages, whose outputs and cost
# charges must reproduce bit for bit, and internal/interp/walker is the
# reference evaluator they are checked against; internal/minic decides
# every AST that the optimizer, the VM and the lints see; internal/ir decides every
# optimized AST, and so every op count, and internal/analysis every lint
# finding; internal/gpu (the SIMT cost model), internal/gpurt (the GPU
# task runtime, which binds kernel programs and runs threadblocks),
# internal/kv (sort and merge), internal/seqfile (partition checksums) and
# internal/hdfs (block placement) feed virtual time and output bytes.
# internal/core, internal/cluster and internal/experiments decide what
# heterodoop and hdbench print, internal/workload generates every input,
# and internal/testkit generates the differential corpus. cmd/ holds the
# five CLIs, which print what the goldens pin.
lint-go:
	$(GO) run ./tools/detlint internal/sim internal/mr internal/faults internal/obs internal/compiler \
		internal/interp internal/interp/walker internal/bytecode internal/streaming internal/minic internal/ir internal/analysis \
		internal/gpu internal/gpurt internal/kv internal/seqfile internal/hdfs \
		internal/core internal/cluster internal/workload internal/testkit internal/experiments cmd

# opt-report prints the SSA optimizer's per-pass rewrite counts for every
# benchmark stage program (host and translated-kernel targets).
opt-report:
	$(GO) run ./cmd/hdbench -opt-report

# fuzz-smoke gives each native fuzz target a short budget on top of its
# checked-in corpus. Longer runs: go test -fuzz FuzzParser ./internal/minic
fuzz-smoke:
	$(GO) test ./internal/minic -run '^$$' -fuzz '^FuzzLexer$$' -fuzztime 5s
	$(GO) test ./internal/minic -run '^$$' -fuzz '^FuzzParser$$' -fuzztime 5s
	$(GO) test ./internal/compiler -run '^$$' -fuzz '^FuzzParseDirective$$' -fuzztime 5s
	$(GO) test ./internal/faults -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 5s
	$(GO) test ./internal/bytecode -run '^$$' -fuzz '^FuzzBytecodeRoundTrip$$' -fuzztime 5s
	$(GO) test ./internal/bytecode -run '^$$' -fuzz '^FuzzVMParity$$' -fuzztime 5s
	$(GO) test ./internal/seqfile -run '^$$' -fuzz '^FuzzSeqfileReader$$' -fuzztime 5s
	$(GO) test ./internal/obs -run '^$$' -fuzz '^FuzzQuoteJSON$$' -fuzztime 5s

# cover enforces statement-coverage floors on the correctness-critical
# packages (thresholds sit ~5 points under current coverage).
cover:
	@set -e; \
	check() { \
		pct="$$($(GO) test -cover "$$1" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')"; \
		if [ -z "$$pct" ]; then echo "cover: no coverage reported for $$1"; exit 1; fi; \
		ok="$$(awk -v p="$$pct" -v m="$$2" 'BEGIN { print (p >= m) ? 1 : 0 }')"; \
		if [ "$$ok" != 1 ]; then echo "cover: $$1 at $$pct% (< $$2% floor)"; exit 1; fi; \
		echo "cover: $$1 $$pct% (floor $$2%)"; \
	}; \
	check ./internal/minic 80; \
	check ./internal/compiler 80; \
	check ./internal/mr 87; \
	check ./internal/bytecode 77; \
	check ./internal/gpurt 80

# ci ends with hostbench's own tests (a separate module that ./... never
# reaches), so a change that moves a recorded seed-1 digest or virtual
# makespan, or breaks traced-run transparency, fails here instead of in
# the benchmark run.
ci: fmt vet build test race lint lint-go stress cover fuzz-smoke bench-check
	$(GO) -C hostbench test -short ./...

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# bench-baseline re-measures the full suite (3 samples each) and rewrites
# BENCH_baseline.json. Run on a quiet machine; commit the result.
bench-baseline:
	$(GO) run ./cmd/hdbench -baseline

# bench-check is the CI regression gate: the cheap -short subset against
# the committed baseline, with a wide (100%) allowance on top of the noise
# bands since CI machines differ from the baseline host.
bench-check:
	$(GO) run ./cmd/hdbench -check -short -threshold 1.0 -allow-env-mismatch

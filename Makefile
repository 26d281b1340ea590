GO ?= go

.PHONY: all check fmt fmt-check vet build test race test-race bench bench-smoke bench-json bench-engine bench-engine-check bench-parallel bench-parallel-check bench-faults bench-faults-check bench-prof bench-serve bench-serve-check fuzz scenario-smoke

all: check

check: fmt vet build race bench

# CI-facing aliases: the workflow names its steps after what they verify.
fmt-check: fmt
test-race: race
bench-smoke: bench

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Smoke-run every benchmark once: catches bit-rot in the harness without
# waiting for statistically meaningful timings.
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# The JSON benchmark families share one harness (cmd/tccbench). Each
# writes a report of cells — one workload at one worker count — and
# every cell carries a behaviour fingerprint: events, final virtual
# time, a digest of the hardware (link port and northbridge) counters
# and a workload checksum. The
# bench-*-check targets rerun a family against its committed file with
# one shared gate: the cell sets must match and every fingerprint must
# be equal (a behaviour change must regenerate the file in the same
# change), and a cell's gated throughput metric (events/s, speedup vs
# serial, req/s) may not drop more than 15% below the committed value.
# The floor is skipped on parallel cells when the runner has fewer CPUs
# than the baseline machine, which cannot reproduce multi-core
# speedups. The baseline is read before the fresh report overwrites the
# file, so the artifact CI uploads is current. engine, parallel and
# serve keep the fastest of 5 attempts per cell (-repeat 5), when
# regenerating and when checking alike, so the baseline and the check
# measure the same statistic; faults, monitor and prof ignore -repeat.

# Tracing + monitoring overhead: leaving WithMonitor on costs only a
# few percent over WithTracer alone.
bench-json:
	$(GO) run ./cmd/tccbench -bench monitor -out BENCH_monitor.json

# Event core: a synthetic self-clocking workload (fingerprint only) and
# Fig. 6/Fig. 7-shaped full-stack workloads gated on events/s.
bench-engine:
	$(GO) run ./cmd/tccbench -bench engine -repeat 5 -out BENCH_engine.json

bench-engine-check:
	$(GO) run ./cmd/tccbench -bench engine -repeat 5 -out BENCH_engine.json -baseline BENCH_engine.json

# Parallel engine: serial vs 1/2/4/8 workers on Fig. 6/Fig. 7-shaped
# 8-node chains plus 256-node 16x16-torus pingpong-mesh and
# ring-allreduce, gated on speedup vs serial. Fails if any worker count
# diverges from the serial fingerprint. Speedups are only meaningful
# relative to the recorded GOMAXPROCS/NumCPU.
bench-parallel:
	$(GO) run ./cmd/tccbench -bench parallel -repeat 5 -out BENCH_parallel.json

bench-parallel-check:
	$(GO) run ./cmd/tccbench -bench parallel -repeat 5 -out BENCH_parallel.json -baseline BENCH_parallel.json

# Fault campaign: reliable-channel goodput and recovery latency vs
# swept cable-outage duration, plus raw-protocol goodput vs injected
# CRC error rate. Pure virtual time, so the check gates fingerprints
# only.
bench-faults:
	$(GO) run ./cmd/tccbench -bench faults -out BENCH_faults.json

bench-faults-check:
	$(GO) run ./cmd/tccbench -bench faults -out BENCH_faults.json -baseline BENCH_faults.json

# Profiler cost contract: profiled chain16 allreduce within 5% of the
# tracer-only baseline (per-round CPU-time minima), zero allocations on
# the disabled link send path. Exits nonzero when either gate fails.
bench-prof:
	$(GO) run ./cmd/tccbench -bench prof -out BENCH_prof.json

# Serving stack: a steady-state chain16 cell pushing >=1M simulated
# requests through the replicated KV service, plus a crash cell where a
# mid-run NodeCrash forces replica failover and the windowed goodput
# records the SLO dip and recovery. Gated on req/s; fails if any worker
# count diverges from the serial run.
bench-serve:
	$(GO) run ./cmd/tccbench -bench serve -repeat 5 -out BENCH_serve.json

bench-serve-check:
	$(GO) run ./cmd/tccbench -bench serve -repeat 5 -out BENCH_serve.json -baseline BENCH_serve.json

# Smoke-run the scenario runner: the committed fault-recovery spec with
# the serial-vs-parallel determinism gate, the committed 2x2 sweep grid
# archiving one metadata-stamped result JSON per cell, the profiled
# allreduce spec whose result embeds the latency budget, the
# 256-node torus ringshift sweep proving serial ≡ parallel byte-identity
# at 2/4/8 workers under the graph-cut partitioner, and the chain16
# serving spec whose node-crash campaign exercises replica failover.
scenario-smoke:
	$(GO) run ./cmd/tccrun -check -out scenario-results scenarios/fault-recovery-chain4.json
	$(GO) run ./cmd/tccrun -out scenario-results scenarios/allreduce-sweep.json
	$(GO) run ./cmd/tccrun -check -out scenario-results scenarios/allreduce-chain16-profiled.json
	$(GO) run ./cmd/tccrun -check -out scenario-results scenarios/torus256-parallel-sweep.json
	$(GO) run ./cmd/tccrun -check -out scenario-results scenarios/serve-chain16-crash.json

# Short fuzz of the message-library wire format (frame build/parse and
# receiver-side header classification) and the scenario serve block
# (strict JSON decode + validation + config lowering). The committed
# corpus runs on every plain `go test`; this target spends a little
# extra time looking for new inputs.
fuzz:
	$(GO) test ./internal/msg -run=NONE -fuzz=FuzzFrameRoundTrip -fuzztime=10s
	$(GO) test ./internal/msg -run=NONE -fuzz=FuzzHeaderClassification -fuzztime=10s
	$(GO) test ./internal/scenario -run=NONE -fuzz=FuzzServeSpec -fuzztime=10s

GO ?= go

.PHONY: build test race vet bench bench-tensor perfbench bench-overlap bench-serve bench-load \
	bench-transport bench-fleet bench-e2e bench-e2e-smoke launch-smoke fleet-smoke ci \
	sim-smoke sim-multi-seed sim-nondeterminism sim-import-export sim-transport

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the packages where goroutines share state: the kernel
# worker pool, the layers that reuse forward/backward buffers, the MPI
# substrate's abort/fault machinery, the Horovod layer, the multi-rank
# runner that drives them all concurrently, the streaming sharded
# loader's producer/consumer handoff, and the wire transport + launch
# rendezvous (writer/reader goroutines per link, concurrent mesh
# handshakes), and the fleet router (concurrent proxying, health
# probes, and the pause-gated reload wave).
race:
	$(GO) test -race ./internal/tensor ./internal/nn ./internal/mpi ./internal/horovod ./internal/candle ./internal/serve ./internal/dataload ./internal/transport ./internal/launch ./internal/fleet

# The arm64 pass type-checks the non-amd64 stubs of the assembly
# kernels, which an amd64-only vet never compiles.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

# Kernel and layer-step micro-benchmarks (the numbers recorded in
# BENCH_tensor.json).
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/tensor ./internal/nn

bench-tensor:
	$(GO) test -bench 'BenchmarkMatMul|BenchmarkTMatMul|BenchmarkDenseStep|BenchmarkConvStep' -benchmem -run '^$$' ./internal/tensor ./internal/nn

# The repository benchmark (perfbench/README.md): one workload, one
# seed, end-to-end metrics (TRACE=0) or per-layer metrics (TRACE=1).
W ?= train-step
SEED ?= 1
TRACE ?= 0
perfbench:
	bash perfbench/run.sh --workload $(W) --seed $(SEED) --seconds 25 --trace $(TRACE)

# Sync-vs-overlap per-step wall time under an injected collective
# stall; regenerates BENCH_overlap.json.
bench-overlap:
	BENCH_OVERLAP_OUT=$(CURDIR)/BENCH_overlap.json $(GO) test -run TestWriteOverlapBench -v ./internal/horovod

# Batched vs unbatched inference serving throughput/latency;
# regenerates BENCH_serve.json.
bench-serve:
	BENCH_SERVE_OUT=$(CURDIR)/BENCH_serve.json $(GO) test -count=1 -run TestWriteServeBench -v ./internal/serve

# Phase-1 load at 4 ranks: parallel reader vs cold sharded vs warm
# binary cache; regenerates BENCH_load.json.
bench-load:
	BENCH_LOAD_OUT=$(CURDIR)/BENCH_load.json $(GO) test -count=1 -run TestWriteLoadBench -v ./internal/dataload

# Ring-allreduce latency/bandwidth across the rank-link transports
# (in-process channels vs Unix sockets vs loopback TCP, 2 procs x 2
# ranks) at three payload sizes; regenerates BENCH_transport.json.
bench-transport:
	BENCH_TRANSPORT_OUT=$(CURDIR)/BENCH_transport.json $(GO) test -count=1 -run TestWriteTransportBench -v ./internal/launch

# Multi-process smoke: 2 spawned worker processes x 2 ranks over unix
# sockets, pinned seed, bit-identical to the 4-rank in-process run.
launch-smoke:
	$(GO) test -count=1 -run TestLaunchSmokeBitIdentical -v ./cmd/candle-launch

# Open-loop fleet load test at 1/2/4 replicas plus the
# kill-a-replica-under-load run; regenerates BENCH_fleet.json.
bench-fleet:
	BENCH_FLEET_OUT=$(CURDIR)/BENCH_fleet.json $(GO) test -count=1 -timeout 600s -run TestWriteFleetBench -v ./internal/fleet

# End-to-end time/energy-to-accuracy sweep: real training for every
# pilot × {engine, ranks, overlap, dtype} grid point, phase split from
# the trace timeline, modeled joules; regenerates BENCH_e2e.json —
# the artifact candle-advise -from-bench recommends from.
bench-e2e:
	BENCH_E2E_OUT=$(CURDIR)/BENCH_e2e.json $(GO) test -count=1 -timeout 600s -run TestWriteE2EBench -v ./internal/e2ebench

# CI-fast subset: one pilot, two configs, schema-validated, thrown away.
bench-e2e-smoke:
	BENCH_E2E_SMOKE=1 BENCH_E2E_OUT=/tmp/BENCH_e2e.json $(GO) test -count=1 -run TestWriteE2EBench -v ./internal/e2ebench

# Replicated-serving smoke: candle-fleet spawns 2 real replica
# processes, one is SIGKILLed under live load (zero failed admitted
# requests), the supervisor respawns it, SIGTERM drains the fleet.
fleet-smoke:
	$(GO) test -count=1 -run TestFleetSmoke -v ./cmd/candle-fleet

# Seeded scenario simulation (cmd/candle-sim): each seed draws a full
# run configuration — pilot, ranks, engine, precision, overlap, fault
# plan, checkpoint cadence — and checks the machine-verified invariants
# (determinism, checkpoint import/export, fault outcomes, overlap and
# dtype equivalences) under a deadlock watchdog. A failing seed prints
# its repro: candle-sim -seed N -verbose.
SIM_SEED ?= 42
SEEDS ?= 25
SIM_START_SEED ?= 1

# One pinned seed, full invariant suite, under the race detector:
# CI-fast and deterministic.
sim-smoke:
	$(GO) run -race ./cmd/candle-sim -seed $(SIM_SEED)

# Sweep $(SEEDS) consecutive seeds from $(SIM_START_SEED), fail-fast
# with the failing seed echoed.
sim-multi-seed:
	$(GO) run ./cmd/candle-sim -seeds $(SEEDS) -start-seed $(SIM_START_SEED)

# Focused sweeps over one invariant family each.
sim-nondeterminism:
	$(GO) run ./cmd/candle-sim -seeds $(SEEDS) -start-seed $(SIM_START_SEED) -check determinism

sim-import-export:
	$(GO) run ./cmd/candle-sim -seeds $(SEEDS) -start-seed $(SIM_START_SEED) -check import-export

sim-transport:
	$(GO) run ./cmd/candle-sim -seeds $(SEEDS) -start-seed $(SIM_START_SEED) -check transport

ci: build test race vet sim-smoke launch-smoke fleet-smoke bench-e2e-smoke

GO ?= go

.PHONY: all build vet lint test race bench bench-json bench-gate bench-baseline ab fuzz-smoke smoke determinism-smoke determinism-gate check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. staticcheck is not vendored; skip with a
# hint when absent so offline checkouts still pass `make check`.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping" \
		     "(go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration of every experiment benchmark: catches perf collapses
# (a virtual-clock regression shows up as seconds, not milliseconds).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Benchmark artifact: every benchmark (experiments, simnet hot paths,
# gtp send/demux, epc user-plane uplink/downlink/breakout-vs-tunnel)
# three times with allocation stats, as go test -json event stream.
# The gtp and epc user-plane benchmarks report allocs/op; the 0-alloc
# steady-state expectation is additionally enforced by
# internal/gtp.TestSendDemuxZeroAlloc under plain `make test`.
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x -count 3 -json ./... | tee BENCH.json

# Curated perf-regression gate: the discovery/coordination hot paths
# (registry COW reads, store mutation, rev probe RTT, X2 send and
# broadcast) and the control-plane signaling paths (full two-sided NAS
# attach/detach/TAU procedures, S1AP transport codec) against the
# committed baseline. Fails on >25% ns/op regression or any allocs/op
# above baseline (the snapshot-read, broadcast, codec, and detach/TAU
# paths are pinned at 0; attach at 2 — the HSS vector and the SIM's
# AKA result). min-of-5 runs absorbs scheduler noise.
# BenchmarkX2BroadcastSimnet is deliberately not gated: its allocs
# reflect cross-goroutine pool scheduling, not the send path.
BENCH_GATE_RE = BenchmarkRegistryLookup|BenchmarkStoreJoin|BenchmarkRegistryRevisionRTT|BenchmarkX2Broadcast$$|BenchmarkX2Send$$|BenchmarkNASProcedure|BenchmarkS1APTransportCodec
BENCH_GATE_PKGS = ./internal/registry ./internal/x2 ./internal/nas ./internal/s1ap

# The attach-storm benchmark is end-to-end (every op re-attaches a
# 32-UE population across 8 eNodeB associations), so it runs in its
# own invocation with far fewer iterations than the hot-path gates.
# Its committed allocs/op carry ~1.5% of headroom over the usual 1930
# (runs between 1927 and 1942 have been seen across -cpu 1/2/4).
STORM_GATE_RE = BenchmarkAttachStorm
STORM_GATE_PKGS = ./internal/epc
STORM_GATE_FLAGS = -benchmem -benchtime 50x -count 3 -json

# Timing-wheel and compact-world gates. SchedulerTimers prices the
# hierarchical wheel at the 1k/100k acceptance sizes; IdleWorld prices
# the E13 compact attach-and-idle world at 10k/100k UEs. The 1M legs
# of both run under bench-json but stay informational — whole-world
# wall time at that scale is seconds, too coarse for a 25% gate.
# IdleWorld's committed allocs/op carry ~2% of headroom (735–744 and
# 867–870 have been seen): each region wheel's key slabs and run
# buffer, the pools, and one worker fan-out per run, whose goroutines'
# runtime bookkeeping is scheduler-shaped. SchedulerTimers/100k is the first op's closure
# table and key-slab growth spread over 10 ops — 12 to 14 by rounding.
WHEEL_GATE_RE = BenchmarkSchedulerTimers/1k$$|BenchmarkSchedulerTimers/100k$$
WHEEL_GATE_PKGS = ./internal/simnet
WHEEL_GATE_FLAGS = -benchmem -benchtime 10x -count 3 -json
IDLE_GATE_RE = BenchmarkIdleWorld/ues=10000$$|BenchmarkIdleWorld/ues=100000$$
IDLE_GATE_PKGS = ./internal/exp
IDLE_GATE_FLAGS = -benchmem -benchtime 1x -count 3 -json

# Event-driven PHY contention gate: the DCF engine at 32 and 256
# saturated stations (one simulated second per op on a reused engine —
# the zero-alloc hot loop, so allocs/op is pinned at 0), plus the whole
# quick-mode E12 coexistence sweep (city construction, the registry
# partition, six schemes per domain) as the experiment-level number.
# E12's committed allocs/op carry ~50 allocs of headroom: its worker
# fan-out makes goroutine/channel allocation counts scheduler-shaped.
PHY_GATE_RE = BenchmarkDCF/(32|256)$$
PHY_GATE_PKGS = ./internal/phy
PHY_GATE_FLAGS = -benchmem -benchtime 100x -count 3 -json
E12_GATE_RE = BenchmarkE12$$
E12_GATE_PKGS = ./internal/exp
E12_GATE_FLAGS = -benchmem -benchtime 5x -count 3 -json

# Mobility-plane gate: one full prepared handover arc (X2 prepare/ack,
# break-before-make re-attach, TEID re-point, path migration,
# complete/retire) on the real stack, single UE and a 16-UE wave.
# Committed allocs/op carry ~1.5% of headroom (120 and 1902 are the
# usual counts, 121 and 1918 have been seen): the settle poll count
# varies by a tick across benchtime choices.
HO_GATE_RE = BenchmarkHandover/single$$|BenchmarkHandover/storm$$
HO_GATE_PKGS = ./internal/exp
HO_GATE_FLAGS = -benchmem -benchtime 50x -count 3 -json
# The steady-state handler-to-handler hop (DESIGN.md §14). The
# baseline pins 0 allocs/op: any allocation creeping onto the dispatch
# hot path fails the gate outright.
DISPATCH_GATE_RE = BenchmarkDispatchHop$$
DISPATCH_GATE_PKGS = ./internal/simnet
DISPATCH_GATE_FLAGS = -benchmem -benchtime 2000x -count 3 -json

bench-gate:
	( $(GO) test -run '^$$' -bench '$(BENCH_GATE_RE)' -benchmem -benchtime 10000x -count 5 -json $(BENCH_GATE_PKGS) && \
	  $(GO) test -run '^$$' -bench '$(STORM_GATE_RE)' $(STORM_GATE_FLAGS) $(STORM_GATE_PKGS) && \
	  $(GO) test -run '^$$' -bench '$(WHEEL_GATE_RE)' $(WHEEL_GATE_FLAGS) $(WHEEL_GATE_PKGS) && \
	  $(GO) test -run '^$$' -bench '$(IDLE_GATE_RE)' $(IDLE_GATE_FLAGS) $(IDLE_GATE_PKGS) && \
	  $(GO) test -run '^$$' -bench '$(PHY_GATE_RE)' $(PHY_GATE_FLAGS) $(PHY_GATE_PKGS) && \
	  $(GO) test -run '^$$' -bench '$(E12_GATE_RE)' $(E12_GATE_FLAGS) $(E12_GATE_PKGS) && \
	  $(GO) test -run '^$$' -bench '$(HO_GATE_RE)' $(HO_GATE_FLAGS) $(HO_GATE_PKGS) && \
	  $(GO) test -run '^$$' -bench '$(DISPATCH_GATE_RE)' $(DISPATCH_GATE_FLAGS) $(DISPATCH_GATE_PKGS) ) \
		| $(GO) run ./cmd/benchgate -baseline BENCH_BASELINE.json

# Regenerate the gate's numbers (run on the reference machine, commit
# the result). The curated benchmark set in BENCH_BASELINE.json is
# preserved; only the measurements refresh.
bench-baseline:
	( $(GO) test -run '^$$' -bench '$(BENCH_GATE_RE)' -benchmem -benchtime 10000x -count 5 -json $(BENCH_GATE_PKGS) && \
	  $(GO) test -run '^$$' -bench '$(STORM_GATE_RE)' $(STORM_GATE_FLAGS) $(STORM_GATE_PKGS) && \
	  $(GO) test -run '^$$' -bench '$(WHEEL_GATE_RE)' $(WHEEL_GATE_FLAGS) $(WHEEL_GATE_PKGS) && \
	  $(GO) test -run '^$$' -bench '$(IDLE_GATE_RE)' $(IDLE_GATE_FLAGS) $(IDLE_GATE_PKGS) && \
	  $(GO) test -run '^$$' -bench '$(PHY_GATE_RE)' $(PHY_GATE_FLAGS) $(PHY_GATE_PKGS) && \
	  $(GO) test -run '^$$' -bench '$(E12_GATE_RE)' $(E12_GATE_FLAGS) $(E12_GATE_PKGS) && \
	  $(GO) test -run '^$$' -bench '$(HO_GATE_RE)' $(HO_GATE_FLAGS) $(HO_GATE_PKGS) && \
	  $(GO) test -run '^$$' -bench '$(DISPATCH_GATE_RE)' $(DISPATCH_GATE_FLAGS) $(DISPATCH_GATE_PKGS) ) \
		| $(GO) run ./cmd/benchgate -baseline BENCH_BASELINE.json -write

# A/B the repo benchmark (BENCHMARK.json) between a base revision and
# the working tree: make ab BASE=<rev> WORKLOAD=<name> [PAIRS=10].
# ./bench is built once at BASE (in a temporary git worktree) and once
# at HEAD, then run PAIRS times each with -seed 1..PAIRS, alternating
# which side goes first so machine drift lands on both; the verdict
# table is `go run ./bench -compare` (improved needs 9 of 10 pairs and
# a median gap beyond the base's own interquartile spread). Everything
# lives in one temp dir, removed on exit.
PAIRS ?= 10
ab:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" || { echo "usage: make ab BASE=<rev> WORKLOAD=<name> [PAIRS=10]"; exit 2; }
	@set -e; tmp=$$(mktemp -d); root=$$(pwd); \
	trap 'git worktree remove --force "$$tmp/base" >/dev/null 2>&1 || true; rm -rf "$$tmp"' EXIT; \
	git worktree add --detach "$$tmp/base" $(BASE) >/dev/null; \
	( cd "$$tmp/base" && $(GO) build -o "$$tmp/bench-base" ./bench ); \
	$(GO) build -o "$$tmp/bench-head" ./bench; \
	for i in $$(seq 1 $(PAIRS)); do \
		if [ $$((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi; \
		for side in $$order; do \
			if [ $$side = base ]; then dir="$$tmp/base"; else dir="$$root"; fi; \
			echo "ab: pair $$i/$(PAIRS) $$side" >&2; \
			( cd "$$dir" && "$$tmp/bench-$$side" -workload $(WORKLOAD) -seed $$i -out "$$tmp/$$side.jsonl" >/dev/null ); \
		done; \
	done; \
	$(GO) run ./bench -compare "$$tmp/base.jsonl" "$$tmp/head.jsonl"

# Fuzz smoke: a few seconds of coverage-guided fuzzing per untrusted
# decoder (NAS and GTP from the air side, S1AP from the backhaul,
# registry and X2 from the Internet side). Regression corpora under
# testdata/fuzz run in plain `make test` already; this explores fresh
# inputs. The last leg mutates scheduler op scripts against the
# reference heap; its seeds are kilobytes long, and the engine's
# default minute of minimizing each new-coverage input would eat the
# whole budget, hence -fuzzminimizetime.
fuzz-smoke:
	@for pkg in ./internal/nas ./internal/s1ap ./internal/gtp ./internal/registry ./internal/x2; do \
		echo "fuzz-smoke: $$pkg"; \
		$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 5s $$pkg || exit 1; \
	done
	@echo "fuzz-smoke: ./internal/simnet"
	$(GO) test -run '^$$' -fuzz FuzzSchedulerVsRefHeap -fuzztime 5s -fuzzminimizetime 1x ./internal/simnet

# Determinism smoke: two same-seed runs must be byte-identical.
smoke: build
	$(GO) build -o /tmp/dlte-sim-smoke ./cmd/dlte-sim
	/tmp/dlte-sim-smoke -exp E4 -quick 2>/dev/null > /tmp/dlte-smoke-1.txt
	/tmp/dlte-sim-smoke -exp E4 -quick 2>/dev/null > /tmp/dlte-smoke-2.txt
	cmp /tmp/dlte-smoke-1.txt /tmp/dlte-smoke-2.txt
	rm -f /tmp/dlte-sim-smoke /tmp/dlte-smoke-1.txt /tmp/dlte-smoke-2.txt

# Real-CPU-knob determinism smoke: the full quick sweep must render
# byte-identical tables fully serial (-p 1) and fully concurrent
# (-p 8). The E13 leg repeats the comparison at a 100k-UE population,
# where -p additionally fans the region wheels across OS threads — the
# million-UE scaling path must not cost a byte of stability. The E11
# leg does the same for the full-size mobility scenarios: the compiled
# corridor / flash-crowd / failure-wave worlds interleave real-stack
# probe handovers with region-sharded compact events, and the knob may
# not move a byte of the rendered table. The E12 leg runs the full-size
# coexistence frontier (64/512/2048 domains on the event-driven PHY
# engine, fanned out over -p workers) and pins the index-ordered
# reduction: identical tables at -p 1 and -p 8.
determinism-smoke: build
	$(GO) build -o /tmp/dlte-sim-det ./cmd/dlte-sim
	/tmp/dlte-sim-det -quick -p 1 2>/dev/null > /tmp/dlte-det-p1.txt
	/tmp/dlte-sim-det -quick -p 8 2>/dev/null > /tmp/dlte-det-p8.txt
	cmp /tmp/dlte-det-p1.txt /tmp/dlte-det-p8.txt
	/tmp/dlte-sim-det -exp E13 -ues 100000 -p 1 2>/dev/null > /tmp/dlte-det-e13-p1.txt
	/tmp/dlte-sim-det -exp E13 -ues 100000 -p 8 2>/dev/null > /tmp/dlte-det-e13-p8.txt
	cmp /tmp/dlte-det-e13-p1.txt /tmp/dlte-det-e13-p8.txt
	/tmp/dlte-sim-det -exp E11 -p 1 2>/dev/null > /tmp/dlte-det-e11-p1.txt
	/tmp/dlte-sim-det -exp E11 -p 8 2>/dev/null > /tmp/dlte-det-e11-p8.txt
	cmp /tmp/dlte-det-e11-p1.txt /tmp/dlte-det-e11-p8.txt
	/tmp/dlte-sim-det -exp E12 -p 1 2>/dev/null > /tmp/dlte-det-e12-p1.txt
	/tmp/dlte-sim-det -exp E12 -p 8 2>/dev/null > /tmp/dlte-det-e12-p8.txt
	cmp /tmp/dlte-det-e12-p1.txt /tmp/dlte-det-e12-p8.txt
	rm -f /tmp/dlte-sim-det /tmp/dlte-det-p1.txt /tmp/dlte-det-p8.txt \
		/tmp/dlte-det-e13-p1.txt /tmp/dlte-det-e13-p8.txt \
		/tmp/dlte-det-e11-p1.txt /tmp/dlte-det-e11-p8.txt \
		/tmp/dlte-det-e12-p1.txt /tmp/dlte-det-e12-p8.txt

# Determinism gate: the two determinism tests at GOMAXPROCS 1/2/8 x
# -count=DET_COUNT, one pass ratio per cell, with three `yes` CPU hogs
# running for the gate's duration so the tests also see a loaded host
# (the hogs are killed by the exit trap). No experiment world waits
# inside Block any more, so the settle heuristic is out of their path;
# what is left is same-instant concurrency among tracked wakes, which
# ROADMAP item 2(e) proposes to close by construction. Measured on a
# 2-CPU host with DET_COUNT=20: TestExperimentsDeterministic and
# TestSerialParallelIdentical both 20/20/20 at GOMAXPROCS 1/2/8 with
# the hogs running, as they were unloaded, where the Block-based waits
# scored 20/18/11 and 20/16/15 unloaded. The target reports and never
# fails, and `check` does not run it yet. A change to the clock or to
# a parked wait compares its ratios against its parent's.
DET_COUNT ?= 10
determinism-gate:
	@set -e; tmp=$$(mktemp -d); hogs=""; \
	trap 'kill $$hogs 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) test -c -o "$$tmp/exp.test" ./internal/exp; \
	for i in 1 2 3; do yes >/dev/null & hogs="$$hogs $$!"; done; \
	for t in TestExperimentsDeterministic TestSerialParallelIdentical; do \
		for p in 1 2 8; do \
			pass=$$( (cd internal/exp && "$$tmp/exp.test" -test.run "^$$t\$$" -test.count $(DET_COUNT) -test.cpu $$p -test.v 2>&1 || true) | grep -c '^--- PASS' || true ); \
			echo "determinism-gate: $$t GOMAXPROCS=$$p $$pass/$(DET_COUNT)"; \
		done; \
	done

check: lint build race bench smoke determinism-smoke

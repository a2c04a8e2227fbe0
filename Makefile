# triadtime — build / test / reproduce

GO ?= go

.PHONY: all build test test-short test-race vet lint lint-audit fuzz-smoke bench bench-module figures check audit figdiff benchab examples loc clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Custom analyzer suite (cmd/triad-vet): determinism, hot-path
# allocation, wire-kind exhaustiveness, lock discipline and typed
# atomics, nonce partitioning, and durability ordering. Sealer/opener
# copies and monotonic state are held by types and go vet's copylocks
# check (make vet). See DESIGN.md, "Static analysis".
lint:
	$(GO) run ./cmd/triad-vet ./...

# Suppression budget: every //triad:nolint must name analyzers of the
# suite and carry a reason, and the total count must not exceed
# lint-baseline.txt. Fails the build on silent or unexplained
# suppressions.
lint-audit:
	$(GO) run ./cmd/triad-vet -nolint-audit

test:
	$(GO) test ./...

# Short mode skips the wall-clock-bound live-UDP tests.
test-short:
	$(GO) test -short ./...

# Race detector over the whole module — exercises the parallel
# experiment runner, trace recorder, and live transport under -race.
test-race:
	$(GO) test -race ./...

# Regenerate every paper figure/table as benchmark output.
bench:
	$(GO) test -bench=. -benchmem

# Full figure regeneration with CSV + gnuplot scripts under results/.
figures:
	$(GO) run ./cmd/triad-sim -fig all -seed 1 -out results

# Run every Fuzz* target for a short burst of new-input generation —
# a smoke pass over the wire parser/sealer and TSA verifier fuzzers,
# not a soak (lengthen with FUZZTIME=5m).
FUZZTIME ?= 10s

fuzz-smoke:
	@set -e; for pkg in $$($(GO) list ./...); do \
		for f in $$($(GO) test -list '^Fuzz' $$pkg 2>/dev/null | grep '^Fuzz' || true); do \
			echo "== $$pkg $$f"; \
			$(GO) test $$pkg -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZTIME); \
		done; \
	done

# benchmark/ is a module of its own (replace triadtime => ../) that
# compiles against internal/serve, wire and transport and replays
# LiveServer's call sequence: vet it and run its short self-tests, so a
# change to those surfaces that breaks it fails here and not in the
# next benchmark run. -short skips TestSimDigestIsStable, so that one
# runs by name: four simulation passes (seconds) compared with the
# bytes in benchmark/golden.json — the only gate that catches a
# behaviour change in core/resilient/quorum before the next benchmark
# run's GUARD line does. Beside it, by name as well, the gate for the
# monitor's quiet gaps, which match the eager loop in law, not in
# stream: TestQuietGapMatchesEagerLaw (10000 seeds a side, -short skips
# it).
bench-module:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test -short ./...
	$(GO) -C benchmark test -run '^TestSimDigestIsStable$$' ./...
	$(GO) test -count=1 -run '^TestQuietGapMatchesEagerLaw$$' ./internal/enclave

# Full pre-merge gate: vet, lint, the suppression budget, build,
# tests, the race detector, and the benchmark module.
check: vet lint lint-audit build test test-race bench-module

# 37-assertion reproduction audit (non-zero exit on any mismatch),
# preceded by the static-analysis gate. Covers the paper figures, the
# quorum fault matrix, the commit attack suite, and the thousand-node
# topology shrink. Seed 7 is the held-out seed: the audit's ranges were
# drawn at seed 1.
audit: lint lint-audit
	$(GO) run ./cmd/triad-sim -fig check -seed 1
	$(GO) run ./cmd/triad-sim -fig check -seed 7

# Seed of figdiff and benchab runs; figdiff takes several (SEED="1 7").
SEED ?= 1

# Simulator byte-identity against another revision: every figure, CSV,
# the audit and the Fig. 6 trace at each SEED, diffed, with each side
# built once (scripts/figdiff.sh). Not part of check: a change may move
# figures on purpose.
figdiff:
	@test -n "$(REV)" || { echo "usage: make figdiff REV=<git revision> [SEED=\"1 7\"]" >&2; exit 2; }
	bash scripts/figdiff.sh $(REV) $(SEED)

# Alternated benchmark runs of the working tree against another
# revision (scripts/benchab.sh): every run, each side's quartiles and
# the pairs won. Not part of check: the numbers are noisy.
WORKLOAD ?= ops_mixed
PAIRS ?= 10

benchab:
	@test -n "$(REV)" || { echo "usage: make benchab REV=<git revision> [WORKLOAD=ops_mixed PAIRS=10 SEED=1]" >&2; exit 2; }
	bash scripts/benchab.sh $(REV) $(WORKLOAD) $(PAIRS) $(SEED)

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/attack-demo
	$(GO) run ./examples/resilient-demo
	$(GO) run ./examples/lease-manager
	$(GO) run ./examples/gossip-demo

# Non-test Go lines per package (directory) and in total, testdata
# excluded; benchmark/ is a module of its own and is listed separately.
# The figure CHANGES.md entries quote as "non-test lines".
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.*' \
		-exec wc -l {} + | awk '$$2 != "total" { \
			d = $$2; sub(/\/[^\/]*$$/, "", d); \
			if (d ~ /^\.\/benchmark/) bench += $$1; else { n[d] += $$1; total += $$1 } } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); \
			printf "%7d total (without benchmark/)\n%7d ./benchmark\n", total, bench }'

clean:
	rm -rf results test_output.txt bench_output.txt

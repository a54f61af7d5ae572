GO ?= go

# Default target: everything CI runs.
.PHONY: check
check: build vet lint lint-fix-audit test race smoke

.PHONY: build
build:
	$(GO) build ./...

.PHONY: test
test:
	$(GO) test ./...

.PHONY: race
race:
	$(GO) test -race ./...

.PHONY: vet
vet:
	$(GO) vet ./...

# hifindlint is this repository's own analyzer (internal/analyze): a
# cross-package dataflow engine enforcing the sketch-path invariants —
# allocation-free UPDATE/ESTIMATE/COMBINE (propagated transitively over
# the call graph), lock discipline on mutex-guarded fields, joined library
# goroutines, determinism of estimation and marshal paths, and
# config-derived channel capacities on ingestion paths. Suppress a
# finding with `//lint:ignore <rule> <reason>` on or above the line.
# The -selfcheck run first replays the analyzer's own golden testdata,
# so a broken rule fails lint before it can silently pass the module.
.PHONY: lint
lint:
	$(GO) run ./cmd/hifindlint -selfcheck
	$(GO) run ./cmd/hifindlint ./...

# Fails when any //lint:ignore directive no longer matches a finding:
# the code was fixed or the rule changed, so the suppression is rot and
# must be deleted rather than left to mask a future regression.
.PHONY: lint-fix-audit
lint-fix-audit:
	$(GO) run ./cmd/hifindlint -audit ./...

# Short fuzz pass over the malformed-input surfaces; CI-sized. Leave the
# time off (go test -fuzz=FuzzReadPacket ./internal/pcap) to fuzz for real.
FUZZTIME ?= 10s
.PHONY: fuzz-short
fuzz-short:
	$(GO) test -fuzz FuzzReadPacket -fuzztime $(FUZZTIME) ./internal/pcap
	$(GO) test -fuzz FuzzInference -fuzztime $(FUZZTIME) ./internal/revsketch
	$(GO) test -fuzz FuzzFrameDecode -fuzztime $(FUZZTIME) ./internal/aggregate
	$(GO) test -fuzz FuzzObserve -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -fuzz FuzzRecorderAddBinary -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -fuzz FuzzBurstDetect -fuzztime $(FUZZTIME) ./internal/burst
	$(GO) test -fuzz FuzzPersistence -fuzztime $(FUZZTIME) ./internal/persist

# Deterministic fault-injection matrix over the multi-router aggregation
# path: each seed derives a full schedule of connection resets, corrupted
# bytes, chunked and duplicated writes (internal/faultnet), and the
# invariant checked is byte-exactness of every merge over its reported
# contributor set. CI runs seeds 1..3 under -race.
FAULT_SEEDS ?= 1 2 3
.PHONY: fault-matrix
fault-matrix:
	for s in $(FAULT_SEEDS); do \
		FAULT_SEED=$$s $(GO) test -race -run 'TestFaultMatrix|TestCrashReconnectPartialInterval' -count=1 -v ./internal/aggregate || exit 1; \
	done

# End-to-end telemetry smoke test: replays a small synthetic trace with
# the -http endpoints up, checks /metrics and /healthz, and requires a
# clean exit on SIGINT.
.PHONY: smoke
smoke:
	./ci/smoke.sh

.PHONY: bench
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# CI's check job (.github/workflows/ci.yml) runs `make check bench-smoke`:
# these targets are what CI runs.

GO ?= go

.PHONY: check numbers unreached fmt vet build test race examples fuzz-smoke test-faults test-repl race-ingest soak-ingest figures-check plan-corpus bench bench-smoke

check: fmt vet build unreached race examples fuzz-smoke figures-check

# The three numbers ROADMAP aim 2 asks every CHANGES.md entry to carry:
# code size, knob count (the distinct TDB_* names non-test Go sources
# spell out, pinned by TestEnvKnobs) and CI job count.
numbers:
	@printf 'non-test Go LOC (excl. bench/): %s\n' \
		"$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.git/*' | xargs cat | wc -l)"
	@printf 'knobs (TDB_* names read): %s\n' \
		"$$(find . -name '*.go' ! -name '*_test.go' ! -path './.git/*' | xargs grep -oh '"TDB_[A-Z0-9_]*"' | sort -u | wc -l)"
	@printf 'CI jobs (ci.yml): %s\n' \
		"$$(sed -n '/^jobs:/,$$p' .github/workflows/ci.yml | grep -c '^  [a-z][a-z-]*:$$')"

# No function ships that no binary links: every package main is built with
# inlining off and its symbols are compared with the declarations of the
# other packages. It fails on an unreached function that
# scripts/unreached.allow does not list with a reason, and on an allow line
# that is stale (the function is linked again or gone) or has no reason.
unreached:
	@GO=$(GO) scripts/unreached.sh

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Every program under examples/ runs to a zero exit. Their reads are TQuel
# strings, which only a run checks.
examples:
	@for d in examples/*/; do \
		$(GO) run ./$$d > /dev/null || { echo "example $$d failed" >&2; exit 1; }; \
	done; echo "examples: all ran"

# The plan-regression corpus: explain output (join order, build sides,
# estimates) pinned against golden text, plus the planner
# differential corpus that guards answer identity across all arms. A quick
# local filter, like test-faults and test-repl: `race` runs all three sets.
plan-corpus:
	$(GO) test -count=1 -run 'Explain|Differential' ./tquel ./server

# Ten seconds of native fuzzing on each untrusted-bytes decoder that has a
# target: the statistics decoder (FuzzDecodeRel), the segment block decoder
# (FuzzDecodeBlock), the snapshot decoder (FuzzDecodeSnapshot), the WAL
# record decoder (FuzzDecodeRecord), the wire request line
# (FuzzDecodeRequest) and the wire reply line (FuzzDecodeResponse). No panic,
# and every accepted input re-encodes to a fixed point; the two wire targets
# also decode and encode exactly as encoding/json does. Then ten seconds of
# TQuel execution (FuzzExec): statements on the paper's faculty history,
# which must not panic, and ten seconds of checkpoint restore
# (FuzzRestoreSnapshot): any snapshot the decoder accepts is loaded into an
# empty database, which must not panic. A short minimization
# budget keeps the smoke fuzzing instead of shrinking a large seed. Commit any crasher it writes under the
# package's testdata/fuzz.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRel$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/stats
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBlock$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/segment
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSnapshot$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime 10s -fuzzminimizetime 1s ./server
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeResponse$$' -fuzztime 10s -fuzzminimizetime 1s ./server
	$(GO) test -run '^$$' -fuzz '^FuzzExec$$' -fuzztime 10s -fuzzminimizetime 1s ./tquel
	$(GO) test -run '^$$' -fuzz '^FuzzRestoreSnapshot$$' -fuzztime 10s -fuzzminimizetime 1s .

# The durability suite: fault injection (vfs), torn-log replay (wal), the
# crash matrices (truncate/corrupt every byte of the final record; crash a
# checkpoint at every mutating filesystem operation), snapshot fallback,
# the randomized durability simulation (with sealing forced low in one arm)
# and the query-layer differential after recovery.
test-faults:
	$(GO) test -count=1 \
		-run 'Fault|Crash|Torn|Recovery|Corrupt|Snapshot|Short|Sync|Simulation' \
		./internal/vfs ./internal/wal . ./tquel

# The replication suite: read-only open mode, the wire protocol against a
# live primary+follower pair (cold catch-up, the figure + 60-query
# differential corpus compared byte-for-byte, kill/restart convergence,
# checkpoint-epoch re-sync) and the per-frame follower crash matrix.
test-repl:
	$(GO) test -count=1 -run 'Repl|ReadOnly|Follower|Proto|Stream' \
		. ./server ./internal/repl

# The full ingest soak: multi-chunk bulk load, sixteen concurrent
# group-committed writers, an epoch rollover, and follower + recovery
# differentials at the end (TestIngestSoak; skipped under -short).
soak-ingest:
	$(GO) test -count=1 -v -run 'TestIngestSoak' .

# The ingest paths under the race detector with the group-commit wait
# window forced wide open: a long linger maximizes the span where
# committers, the flush leader, checkpoints, and replication notification
# overlap — exactly the interleavings a timing-neutral run never holds
# open long enough to race. The three packages' tests take the linger as
# -commit-wait and open their databases with it (Options.GroupCommitWait).
race-ingest:
	$(GO) test -race -count=1 \
		-run 'Group|Load|Ingest|Batch|Pipeline|Checkpoint|Concurrent' \
		. ./server ./internal/wal -args -commit-wait=5ms

# The committed paper figures must match what the code generates.
figures-check:
	@$(GO) run ./cmd/figures > /tmp/tdb_figures_gen.txt && \
		diff -u docs/figures.txt /tmp/tdb_figures_gen.txt && \
		echo "figures: no drift" || \
		{ echo "docs/figures.txt drifted from cmd/figures output" >&2; exit 1; }

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# One iteration of every benchmark: catches benchmarks that fail without
# paying for stable numbers.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

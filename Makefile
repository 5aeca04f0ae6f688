# Reproduces the CI gate locally: `make ci` runs exactly what
# .github/workflows/ci.yml runs.

GO ?= go

.PHONY: ci fmt-check vet build test race allocs cover crash-recovery metamorphic fuzz-smoke bench-module clean

ci: fmt-check vet build race allocs cover crash-recovery metamorphic fuzz-smoke bench-module

fmt-check:
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

# The allocation gates: per-request ceilings of the read and write
# paths (core), per-row ceilings of the streamed executor (sqlexec)
# and of a JSON SELECT served over HTTP (endpoint), the storage
# engine's point probe, and its live bytes and heap objects per row
# (rdb). They are built `!race` — the race detector changes
# allocation counts — so the race run above skips them.
allocs:
	$(GO) test -run 'Allocs|Footprint' ./internal/core ./internal/rdb ./internal/rdb/sqlexec ./internal/endpoint

# Coverage gates: the translation core, the SQL executor (the
# compiled read path's engine), the SQL parser and its SELECT printer,
# the write-ahead log, the storage engine (statistics included) and
# the SPARQL engine (aggregation included) must all stay above 70%.
cover:
	$(GO) test -coverprofile=cover.out ./internal/core
	@$(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); if ($$3+0 < 70) { printf "core coverage %.1f%% is below the 70%% gate\n", $$3; exit 1 } else printf "core coverage %.1f%% (gate 70%%)\n", $$3 }'
	$(GO) test -coverprofile=cover.out ./internal/rdb/sqlexec
	@$(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); if ($$3+0 < 70) { printf "sqlexec coverage %.1f%% is below the 70%% gate\n", $$3; exit 1 } else printf "sqlexec coverage %.1f%% (gate 70%%)\n", $$3 }'
	$(GO) test -coverprofile=cover.out ./internal/rdb/sqlparser
	@$(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); if ($$3+0 < 70) { printf "sqlparser coverage %.1f%% is below the 70%% gate\n", $$3; exit 1 } else printf "sqlparser coverage %.1f%% (gate 70%%)\n", $$3 }'
	$(GO) test -coverprofile=cover.out ./internal/rdb/wal
	@$(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); if ($$3+0 < 70) { printf "wal coverage %.1f%% is below the 70%% gate\n", $$3; exit 1 } else printf "wal coverage %.1f%% (gate 70%%)\n", $$3 }'
	$(GO) test -coverprofile=cover.out ./internal/rdb
	@$(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); if ($$3+0 < 70) { printf "rdb coverage %.1f%% is below the 70%% gate\n", $$3; exit 1 } else printf "rdb coverage %.1f%% (gate 70%%)\n", $$3 }'
	$(GO) test -coverprofile=cover.out ./internal/sparql
	@$(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); if ($$3+0 < 70) { printf "sparql coverage %.1f%% is below the 70%% gate\n", $$3; exit 1 } else printf "sparql coverage %.1f%% (gate 70%%)\n", $$3 }'

# The durability gate: recovery replay, torn-tail handling and the
# kill-and-recover differential (hard stop mid-stream, reopen, compare
# byte-for-byte against a memory reference fed the acked prefix).
crash-recovery:
	$(GO) test -run 'Recover|Torn|Checkpoint|Wal|WAL' ./internal/rdb ./internal/rdb/wal
	$(GO) test -run TestKillAndRecoverDifferential ./internal/workload

# The read-path metamorphic invariants: query-to-query relations
# (UNION vs OR, always-false OPTIONAL, COUNT(*) vs length, LIMIT
# prefix) that hold in every execution mode.
metamorphic:
	$(GO) test -run 'TestMetamorphic' -v ./internal/workload

# 110s of native fuzzing across the parser/normalizer targets, the
# prepared-plan executor, the row-cell encoders, the statistics
# invariant, the sharded publish protocol, the index tries and the
# DOUBLE/BOOLEAN cell encoding — regressions land in testdata/fuzz/ as
# seeds.
fuzz-smoke:
	$(GO) test -fuzz FuzzParseUpdate -fuzztime 10s -run '^$$' ./internal/update
	$(GO) test -fuzz FuzzParseQuery -fuzztime 10s -run '^$$' ./internal/sparql
	$(GO) test -fuzz FuzzParseSelect -fuzztime 10s -run '^$$' ./internal/rdb/sqlparser
	$(GO) test -fuzz FuzzPreparedMatchesSelect -fuzztime 10s -run '^$$' ./internal/rdb/sqlexec
	$(GO) test -fuzz FuzzParseTurtle -fuzztime 10s -run '^$$' ./internal/turtle
	$(GO) test -fuzz FuzzNormalizeShape -fuzztime 10s -run '^$$' ./internal/core
	$(GO) test -fuzz FuzzRowCellMatchesTerm -fuzztime 10s -run '^$$' ./internal/core
	$(GO) test -fuzz FuzzStatsInvariant -fuzztime 10s -run '^$$' ./internal/rdb
	$(GO) test -fuzz FuzzShardedPublish -fuzztime 10s -run '^$$' ./internal/rdb
	$(GO) test -fuzz FuzzIndexOps -fuzztime 10s -run '^$$' ./internal/rdb
	$(GO) test -fuzz FuzzValueFloatBits -fuzztime 10s -run '^$$' ./internal/rdb

# The benchmark (bench/) is its own module, so `./...` above never
# builds it: vet and test it against the program it links.
bench-module:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

clean:
	$(GO) clean ./...

GO ?= go

.PHONY: all build loc ignores test test-server test-cluster test-walcrash race vet gqlvet fuzz-smoke check

all: check

## build: compile every package
build:
	$(GO) build ./...

## loc: print the non-test Go line count outside bench/ and testdata — the
## number the deletion PRs are judged by (comments and blank lines included,
## so stripping or reflowing them is visible in the diff, not in the count)
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' -not -path './.bench_build/*' -print0 \
		| xargs -0 cat | wc -l

## ignores: print the number of in-tree //gqlvet:ignore directives outside
## bench/ and testdata (internal/analysis quotes the syntax in backticks in
## its own documentation; those lines are not directives)
ignores:
	@find . -name '*.go' -not -path './bench/*' -not -path '*/testdata/*' -not -path './.bench_build/*' -print0 \
		| xargs -0 grep -h '//gqlvet:ignore' | grep -vc '`//gqlvet:ignore' || true

## test: run the unit and integration tests
test:
	$(GO) test ./...

## test-server: black-box gate for cmd/gqlserver — builds the binary,
## starts it on a random port with documents loaded from disk, and
## drives /query (byte-identical to the embedded engine), /explain,
## /metrics, /healthz, overload -> 429, a deadline -> JSON timeout, and
## a SIGTERM drain that must exit 0 within the grace period
test-server:
	$(GO) test ./internal/server -run TestServerBlackBox -v

## test-cluster: black-box gate for the distributed read path — builds
## cmd/gqlshard and cmd/gqlserver, starts a 3-mirror shard cluster plus a
## frontend on random ports, and asserts byte-identical answers vs an
## engine-free reference, version-handshake resync after /admin/doc, retry past
## a shard killed mid-stream, an empty restarted mirror converging, the
## fail-mode (502 shard_error) and -allow-partial frontends, the shard
## counters on /metrics, and a clean SIGTERM drain of every process
test-cluster:
	$(GO) test ./internal/cluster -run TestClusterBlackBox -v

## test-walcrash: durability gate — re-executes the test binary as a
## child that applies mutation batches against a WAL-backed store, kills
## it with SIGKILL mid-workload, reopens the directory and asserts the
## recovered store is byte-identical (content hashes and per-graph
## signatures) to an in-memory oracle replay of the acknowledged batches
test-walcrash:
	$(GO) test ./internal/store -run TestWALCrashRecovery -v

## race: run the tests under the race detector (includes the selection
## kernel's worker-edge, early-stop and cancellation cases, the
## work-stealing stress tests and the shared-engine HTTP handler stress in
## internal/server)
race:
	$(GO) test -race ./...

## vet: run the standard toolchain vet, and fail if gofmt would rewrite any
## Go file outside testdata
vet:
	$(GO) vet ./...
	@out=$$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.bench_build/*' -print0 | xargs -0 gofmt -l); \
		if [ -n "$$out" ]; then echo "gofmt -l lists files that need formatting:"; echo "$$out"; exit 1; fi

## gqlvet: run the project-specific analyzers (internal/analysis) over
## the module, _test.go files included; non-zero exit on any finding
gqlvet:
	$(GO) run ./cmd/gqlvet -tests ./...

## fuzz-smoke: brief fuzz of the parsers, the binary/TSV graph readers,
## the expression evaluator, the HTTP query frontend, the shard wire and
## the WAL record decoder (panics and 500s are failures); run longer
## locally when touching internal/lexer, internal/parser, internal/sqlbase,
## internal/expr, internal/server, the internal/graph load paths or the
## store's wire and WAL codecs
fuzz-smoke:
	$(GO) test ./internal/parser -run 'FuzzParse$$' -fuzz 'FuzzParse$$' -fuzztime 10s
	$(GO) test ./internal/parser -run FuzzParseMutation -fuzz FuzzParseMutation -fuzztime 10s
	$(GO) test ./internal/graph -run FuzzReadBinary -fuzz FuzzReadBinary -fuzztime 5s
	$(GO) test ./internal/graph -run FuzzReadTSV -fuzz FuzzReadTSV -fuzztime 5s
	$(GO) test ./internal/sqlbase -run FuzzParseSQL -fuzz FuzzParseSQL -fuzztime 5s
	$(GO) test ./internal/expr -run 'FuzzEval$$' -fuzz 'FuzzEval$$' -fuzztime 10s
	$(GO) test ./internal/expr -run FuzzCompiledEval -fuzz FuzzCompiledEval -fuzztime 10s
	$(GO) test ./internal/server -run 'FuzzServerQuery$$' -fuzz 'FuzzServerQuery$$' -fuzztime 10s
	$(GO) test ./internal/server -run 'FuzzServerQueryV2$$' -fuzz 'FuzzServerQueryV2$$' -fuzztime 10s
	$(GO) test ./internal/store -run FuzzShardWire -fuzz FuzzShardWire -fuzztime 10s
	$(GO) test ./internal/store -run FuzzWALRecord -fuzz FuzzWALRecord -fuzztime 10s

## check: everything CI runs
check: build vet gqlvet test test-server test-cluster test-walcrash race fuzz-smoke

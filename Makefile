# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet test race bench bench-json experiments cover fuzz

all: build vet test

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

bench:
	go test -bench=. -benchmem .

# Sweep-kernel, server-ingest and WAL-durability benchmarks, committed as
# JSON so before/after numbers travel with the code. The query-plane series
# run at a much higher benchtime than the ingest series: a QueryBatch
# iteration is ~30µs, so 100x would measure only ~3ms and roll dice on cache
# state, while ingest iterations are ~12ms each and the ingest=true query
# series must finish while its finite concurrent stream is still flowing.
# The tracing-overhead grid (BenchmarkObsOverhead: off / on / tail-only /
# head-sampled / traced-all) runs at 20x — each iteration ingests a whole
# corpus trace, and the 3% overhead budget needs more than one sample.
bench-json:
	go test ./internal/experiment/ ./internal/monitor/ -run '^$$' \
		-bench 'BenchmarkSweepKernel|BenchmarkCorpusSweep|BenchmarkServerIngest|BenchmarkWALIngest' \
		-benchtime=1x -benchmem | go run ./cmd/benchjson > BENCH_sweep.json
	{ go test ./internal/monitor/ -run '^$$' \
		-bench 'BenchmarkIngestColumnar|BenchmarkIngestParallel|BenchmarkIngestMultiTenant|BenchmarkPlannerScaling|BenchmarkQueryParallel/ingest=true' \
		-benchtime=100x -benchmem; \
	  go test ./internal/monitor/ -run '^$$' \
		-bench 'BenchmarkObsOverhead' \
		-benchtime=20x -benchmem; \
	  go test ./internal/monitor/ -run '^$$' \
		-bench 'BenchmarkQueryParallel/ingest=false' \
		-benchtime=20000x -benchmem; \
	  go test ./internal/replay/ -run '^$$' \
		-bench 'BenchmarkReplayOpen' \
		-benchtime=10x -benchmem; \
	  go test ./internal/replay/ -run '^$$' \
		-bench 'BenchmarkReplayQuery' \
		-benchtime=20000x -benchmem; } \
		| go run ./cmd/benchjson > BENCH_query.json

# Re-run the paper's full Section 4 evaluation.
experiments:
	go run ./cmd/experiments

cover:
	go test -cover ./...

fuzz:
	go test -fuzz=FuzzReadBinary -fuzztime=30s ./internal/trace/
	go test -fuzz=FuzzReadText -fuzztime=30s ./internal/trace/
	go test -fuzz=FuzzFrameRoundTrip -fuzztime=30s ./internal/monitor/
	go test -fuzz=FuzzServerProtocol -fuzztime=30s ./internal/monitor/
	go test -fuzz=FuzzWALChainOpen -fuzztime=30s ./internal/wal/
	go test -run '^$$' -fuzz=FuzzCRNoteRoundTrip -fuzztime=30s ./internal/hct/
	go test -run '^$$' -fuzz=FuzzJournaledImpliesPlannable -fuzztime=30s -fuzzminimizetime=1s ./internal/monitor/
	go test -run '^$$' -fuzz=FuzzPipelineDifferential -fuzztime=30s -fuzzminimizetime=1s ./internal/hct/

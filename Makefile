# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet test race bench experiments cover fuzz

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
	go test -run '^$$' -fuzz=FuzzWALChainOpen -fuzztime=30s ./internal/wal/
	go test -run '^$$' -fuzz=FuzzCRNoteRoundTrip -fuzztime=30s ./internal/hct/
	go test -run '^$$' -fuzz=FuzzProjFrameRoundTrip -fuzztime=30s ./internal/hct/
	go test -run '^$$' -fuzz=FuzzJournaledImpliesPlannable -fuzztime=30s -fuzzminimizetime=1s ./internal/monitor/
	go test -run '^$$' -fuzz=FuzzPipelineDifferential -fuzztime=30s -fuzzminimizetime=1s ./internal/hct/

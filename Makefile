GO ?= go

.PHONY: all build vet test race check bench faults clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The pre-merge gate: everything must compile, vet clean, and pass the
# full suite under the race detector (the DES kernel's coroutine
# scheduling is -race clean by design).
check: build vet race

bench:
	$(GO) test -bench=. -benchmem

# Regenerate the fault-injection outcome matrix (robustness extension).
faults:
	$(GO) run ./cmd/ninjabench -run=ext-faults

clean:
	$(GO) clean ./...

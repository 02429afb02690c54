GO ?= go

.PHONY: build fmt vet lint lint-json test kernels fuzz race verify bench bench-json bench-save bench-drift recover-smoke loc textdiff

build:
	$(GO) build ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

lint:
	sh scripts/lint.sh

lint-json:
	$(GO) run ./cmd/roglint -json ./...

test:
	$(GO) test ./...

kernels:
	sh scripts/verify.sh kernels

fuzz:
	sh scripts/verify.sh fuzz

race:
	sh scripts/verify.sh race

recover-smoke:
	tmp=$$(mktemp -d); \
	$(GO) run ./cmd/rogtrain -strategy rog -threshold 4 -minutes 2 \
		-checkpoint-dir "$$tmp/ckpt" -checkpoint-every 20 \
		-faults "servercrash@45+10" && \
	$(GO) run ./cmd/rogtrain -strategy rog -threshold 4 -minutes 3 \
		-checkpoint-dir "$$tmp/ckpt" -resume; \
	rc=$$?; rm -rf "$$tmp"; exit $$rc

verify:
	sh scripts/verify.sh

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

bench-json:
	$(GO) run ./cmd/rogbench -exp fig1 -json BENCH_fig1.json
	$(GO) run ./cmd/rogbench -exp churn -json BENCH_churn.json

# bench-save snapshots one experiment's -json report as the next
# BENCH_<n>.json (one past the highest n present); bench-drift (also the
# last stage of scripts/verify.sh, where it is implemented) reruns the newest
# snapshot of every experiment and fails if any leaf of a report moved.
BENCH_EXP ?= fleet
bench-save:
	n=$$(ls BENCH_[0-9]*.json 2>/dev/null | sed 's/BENCH_\([0-9]*\)\.json/\1/' | sort -n | tail -1); \
	$(GO) run ./cmd/rogbench -exp $(BENCH_EXP) -json "BENCH_$$(($${n:-0}+1)).json"

bench-drift:
	sh scripts/verify.sh bench-drift

# loc prints non-test Go lines per package outside bench/ and the total;
# `make loc BASE=<git-ref>` prints that commit's, the tree's and the delta.
loc:
	sh scripts/loc.sh $(BASE)

# textdiff checks that every rogbench text and -json report is byte-identical
# to the commit BASE's: `make textdiff BASE=<git-ref>`.
textdiff:
	sh scripts/textdiff.sh $(BASE)

GO ?= go

.PHONY: build fmt vet lint lint-json test race verify bench bench-json bench-save bench-drift recover-smoke

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

# bench-save snapshots one experiment's -json report into the first free
# BENCH_<n>.json; bench-drift (also run by scripts/verify.sh, non-fatally)
# reruns the latest snapshot's experiment and reports what moved.
BENCH_EXP ?= fleet
bench-save:
	n=1; while [ -e "BENCH_$$n.json" ]; do n=$$((n+1)); done; \
	$(GO) run ./cmd/rogbench -exp $(BENCH_EXP) -json "BENCH_$$n.json"

bench-drift:
	latest=$$(ls BENCH_[0-9]*.json 2>/dev/null | sort -t_ -k2 -n | tail -1); \
	if [ -z "$$latest" ]; then echo "bench-drift: no BENCH_<n>.json snapshot (run make bench-save)"; \
	else $(GO) run ./cmd/rogbench -drift "$$latest"; fi

# CI and humans invoke identical commands: .github/workflows/ci.yml runs
# `make lint build test race fuzz-smoke sweep-smoke serve-smoke
# coord-smoke refine-smoke churn-smoke docs-check e2ebench-check` in the
# main job, `make staticcheck vuln` for the deeper
# static and vulnerability scans, and `make bench-json bench-compare`
# in the bench-compare job — and nothing else.

GO ?= go

# Steadier perf numbers: every bench entry runs 3x its base iterations.
BENCH_ITERS_SCALE ?= 3

.PHONY: build test race fuzz-smoke bench-json bench-compare bench-baseline fmt lint staticcheck vuln ci sweep-smoke serve-smoke coord-smoke refine-smoke churn-smoke docs-check e2ebench-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Ten seconds of coverage-guided fuzzing per target: the solve/verify
# request decoders (untrusted HTTP bodies, inline instances included),
# the scenario create body's validation against the operator cap, the
# scenario event body on a live session (the incumbent must stay
# valid), the sweep submit body against the coordinator's job bound,
# batch complete bodies against a live durable sweep job, the two
# journals' rollback and decode paths, and the shard-cell artifacts
# workers hand to the sweep coordinator's Complete. A failing
# input is written under the package's testdata/fuzz for replay by
# `make test`. -fuzzminimizetime=1x minimizes a new interesting input
# with one run instead of up to a minute of them, which otherwise eats
# a target's whole ten seconds at 0 execs/s.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzParseRequests$$' -fuzztime=10s -fuzzminimizetime=1x ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzScenarioSpec$$' -fuzztime=10s -fuzzminimizetime=1x ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzScenarioEvent$$' -fuzztime=10s -fuzzminimizetime=1x ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzSweepSubmit$$' -fuzztime=10s -fuzzminimizetime=1x ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzSweepComplete$$' -fuzztime=10s -fuzzminimizetime=1x ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzJournalRollback$$' -fuzztime=10s -fuzzminimizetime=1x ./internal/mapping
	$(GO) test -run='^$$' -fuzz='^FuzzProbeEstimates$$' -fuzztime=10s -fuzzminimizetime=1x ./internal/mapping
	$(GO) test -run='^$$' -fuzz='^FuzzJournalDecode$$' -fuzztime=10s -fuzzminimizetime=1x ./internal/coord
	$(GO) test -run='^$$' -fuzz='^FuzzCompleteCells$$' -fuzztime=10s -fuzzminimizetime=1x ./internal/coord

# The JSON perf harness over the canonical pinned-seed corpus; see
# README "Performance" for the schema and the regression-gating rules.
bench-json:
	$(GO) run ./cmd/bench -iters-scale $(BENCH_ITERS_SCALE) -o BENCH_results.json

# Gate BENCH_results.json against the committed baseline: fails on >20%
# calibration-normalized median-ns/op growth (entries sub-10us on both
# sides exempt), allocs/op growth beyond the noise floor on any
# alloc-gated entry, or unmatched entries (dropped benchmarks, or new
# alloc-gated ones the baseline does not cover yet).
bench-compare:
	$(GO) run ./cmd/bench -compare -ns-threshold 0.20 BENCH_baseline.json BENCH_results.json

# Refresh the committed baseline after an intentional perf change.
bench-baseline:
	$(GO) run ./cmd/bench -iters-scale $(BENCH_ITERS_SCALE) -o BENCH_baseline.json

# Distributed-sweep smoke test: compute fig2a as two shards, merge the
# shard cell files, and require the merged .dat to be byte-identical to
# an unsharded run — the Grid engine's sharding contract, end to end
# through the real CLI.
SWEEP_SMOKE_DIR ?= .sweep-smoke
sweep-smoke:
	rm -rf $(SWEEP_SMOKE_DIR)
	$(GO) run ./cmd/experiments -seeds 2 -only fig2a -workers 2 -out $(SWEEP_SMOKE_DIR)/full >/dev/null
	$(GO) run ./cmd/experiments -seeds 2 -only fig2a -workers 2 -shard 0/2 -out $(SWEEP_SMOKE_DIR)/shards >/dev/null
	$(GO) run ./cmd/experiments -seeds 2 -only fig2a -workers 2 -shard 1/2 -out $(SWEEP_SMOKE_DIR)/shards >/dev/null
	$(GO) run ./cmd/experiments -seeds 2 -only fig2a -merge 2 -out $(SWEEP_SMOKE_DIR)/shards >/dev/null
	cmp $(SWEEP_SMOKE_DIR)/full/fig2a.dat $(SWEEP_SMOKE_DIR)/shards/fig2a.dat
	@echo "sweep-smoke: sharded merge byte-identical to the unsharded run"
	rm -rf $(SWEEP_SMOKE_DIR)

# Allocation-daemon smoke test: build cmd/serve, boot it on an
# ephemeral port, hit /healthz, /v1/solve and /v1/verify over real
# HTTP, diff the responses against the goldens the unit tests pin, and
# require a clean exit 0 on SIGTERM graceful drain.
SERVE_SMOKE_DIR ?= .serve-smoke
serve-smoke:
	SERVE_SMOKE_DIR=$(SERVE_SMOKE_DIR) GO=$(GO) sh scripts/serve_smoke.sh

# Distributed-coordinator smoke test: boot cmd/serve with short shard
# leases and a durable -coord-state-dir, submit a 3-shard sweep job,
# run three real sweepworker processes — one kill -KILL'd mid-shard,
# one straggler whose lease expires and whose late result is discarded
# — then kill -KILL the coordinator itself mid-sweep and restart it on
# the same state dir. The restarted daemon must report the recovered
# job on /statsz and the merged figure output must be byte-identical
# to an unsharded single-process run, with at least one lease re-offer
# and a clean SIGTERM drain that seals a final snapshot.
COORD_SMOKE_DIR ?= .coord-smoke
coord-smoke:
	COORD_SMOKE_DIR=$(COORD_SMOKE_DIR) GO=$(GO) sh scripts/coord_smoke.sh

# Refinement-layer smoke test: run the refine figure (heuristics vs
# Refined vs Exact) small through the real CLI, diff its .dat against
# the committed golden, require a 2-shard merge to be byte-identical,
# and enforce the per-instance dominance gate (Refined never costs
# more than the best feasible constructive heuristic on any cell).
REFINE_SMOKE_DIR ?= .refine-smoke
refine-smoke:
	REFINE_SMOKE_DIR=$(REFINE_SMOKE_DIR) GO=$(GO) sh scripts/refine_smoke.sh

# Churn-subsystem smoke test: run the churn figure (journaled local
# repair vs from-scratch re-solve over dynamic scenarios) small through
# the real CLI, diff its .dat against the committed golden, require a
# 2-shard merge to be byte-identical, and enforce the dominance gate
# (repair cost within tolerance of re-solve on every scenario, strictly
# fewer operators migrated over the grid).
CHURN_SMOKE_DIR ?= .churn-smoke
churn-smoke:
	CHURN_SMOKE_DIR=$(CHURN_SMOKE_DIR) GO=$(GO) sh scripts/churn_smoke.sh

# Documentation gate: every non-main package must carry a "// Package
# <name> ..." godoc comment, and every local link in README.md and
# docs/*.md must point at an existing file. Links resolve relative to
# the file containing them (as GitHub renders them); external URLs,
# bare anchors and links escaping the repo (the GitHub-web-relative CI
# badge) are skipped. The README module map's internal/ block must name
# every directory under internal/, and every name in it must exist.
# Every *.md path named in a Go comment must exist, resolved from the
# repo root or from the Go file's own directory. Every target of a
# `make ...` line inside a fenced code block of README.md or docs/*.md
# must be a target of this Makefile (options, VAR=value arguments and
# anything after a # comment or a shell operator are skipped).
docs-check:
	@fail=0; \
	for pkg in $$($(GO) list -f '{{if ne .Name "main"}}{{.Dir}}:{{.Name}}{{end}}' ./...); do \
		dir=$${pkg%%:*}; name=$${pkg##*:}; \
		if ! grep -qs "^// Package $$name " $$dir/*.go; then \
			echo "docs-check: package $$name ($$dir) has no package comment"; fail=1; \
		fi; \
	done; \
	for f in README.md docs/*.md; do \
		for link in $$(grep -oE '\]\([^)]+\)' $$f | sed -E 's/^\]\(//; s/\)$$//' | grep -vE '^(https?:|#)'); do \
			path=$$(dirname $$f)/$${link%%\#*}; \
			case $$(realpath -m --relative-to=. $$path) in ../*) continue;; esac; \
			if [ ! -e "$$path" ]; then echo "docs-check: $$f: broken link $$link"; fail=1; fi; \
		done; \
	done; \
	mapped=$$(sed -n '/^internal\/$$/,/^```$$/p' README.md | \
		awk '/^  [a-z]/ { sub(/^  /, ""); sub(/  .*/, ""); gsub(/,/, " "); print }'); \
	for dir in internal/*/; do \
		name=$$(basename $$dir); \
		if ! echo " "$$mapped" " | grep -q " $$name "; then \
			echo "docs-check: README module map does not name internal/$$name"; fail=1; \
		fi; \
	done; \
	for name in $$mapped; do \
		if [ ! -d internal/$$name ]; then \
			echo "docs-check: README module map names internal/$$name, which does not exist"; fail=1; \
		fi; \
	done; \
	for f in $$(find . -name '*.go' -not -path './.*'); do \
		for ref in $$(grep -oE '//.*' $$f | grep -oE '[A-Za-z0-9_./-]+\.md\b' | grep -v '^//' | sort -u); do \
			if [ ! -e "$$ref" ] && [ ! -e "$$(dirname $$f)/$$ref" ]; then \
				echo "docs-check: $$f: a comment names $$ref, which does not exist"; fail=1; \
			fi; \
		done; \
	done; \
	for ref in $$(awk 'FNR == 1 { fence = 0 } /^```/ { fence = !fence; next } \
			fence && /^[[:space:]]*(\$$ )?make / { \
				sub(/#.*/, ""); sub(/^[[:space:]]*(\$$ )?make /, ""); \
				for (i = 1; i <= NF && $$i !~ /^[|&;>]/; i++) \
					if ($$i !~ /^-|=/) print FILENAME ":" FNR ":" $$i }' README.md docs/*.md); do \
		target=$${ref##*:}; \
		if ! grep -qE "^$$target:" Makefile; then \
			echo "docs-check: $${ref%:*}: make target $$target does not exist"; fail=1; \
		fi; \
	done; \
	if [ $$fail -ne 0 ]; then exit 1; fi; \
	echo "docs-check: OK"

# The end-to-end benchmark (cmd/e2ebench) is its own Go module, so
# `go test ./...` never compiles it, yet it imports internal/heuristics,
# serve, churn and refine. This vets and tests it against the current
# tree, so a change that breaks it fails here rather than when the
# benchmark runs.
e2ebench-check:
	$(GO) vet -C cmd/e2ebench . && $(GO) test -C cmd/e2ebench .

fmt:
	gofmt -w .

lint:
	@fmtdiff="$$(gofmt -l .)"; if [ -n "$$fmtdiff" ]; then \
		echo "gofmt needed on:"; echo "$$fmtdiff"; exit 1; fi
	$(GO) vet ./...

# Deeper static analysis than go vet (needs network access to fetch
# the tool; CI runs it as its own lint step).
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@latest ./...

# Known-vulnerability scan over all dependencies (needs network access).
vuln:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

ci: lint build test race fuzz-smoke sweep-smoke serve-smoke coord-smoke refine-smoke churn-smoke docs-check e2ebench-check

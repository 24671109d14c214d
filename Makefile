.PHONY: install lint test test-fast test-faults test-serving test-sharding test-incremental test-store test-net test-scenarios bench bench-smoke bench-base bench-serving-smoke bench-sharding-smoke bench-incremental-smoke bench-scenarios-smoke report examples clean

install:
	pip install -e . --no-build-isolation

test: lint bench-smoke bench-base test-faults test-serving test-sharding test-incremental test-store test-net test-scenarios bench-serving-smoke bench-sharding-smoke bench-incremental-smoke bench-scenarios-smoke
	pytest tests/

# Static checks: ruff when the container ships it, plus a bytecode
# compile of the whole source tree and the test oracles (catches syntax
# errors everywhere, with or without ruff).
lint:
	@if command -v ruff >/dev/null 2>&1; then \
	    ruff check src tests benchmarks examples; \
	else \
	    echo "ruff not installed; skipping ruff check"; \
	fi
	python -m compileall -q src tests/oracles

# Fast fault-injection smoke: crash / stall / kill the Nth worker task
# and assert recovery (retry + sequential fallback) stays bit-identical
# to a clean sequential run.
test-faults:
	PYTHONPATH=src python -m pytest tests/test_execution_faults.py -q -m "not slow"

# Serving + API-stability suites plus a live `repro serve --smoke`
# round trip (service snapshots bit-identical to an offline replay).
test-serving:
	PYTHONPATH=src python -m pytest tests/test_serving.py tests/test_api_stability.py -q
	PYTHONPATH=src python -m repro serve --smoke

# Sharded multi-tenant serving suites: ShardRouter merged-view
# bit-identity at every watermark, exact rebalance hand-off,
# crash/restore with zero acked-claim loss, tenant quotas/engine
# sharing, and the golden API-surface snapshot for the v1 promise.
test-sharding:
	PYTHONPATH=src python -m pytest tests/test_sharding.py tests/test_tenancy.py tests/test_api_surface.py -q

# Exact-incremental suites: the streaming delta path (append-only
# dataset extension, spliced index compile, patched truth vectors,
# certified partition reuse) pinned bit-identical to offline TDAC.run
# at every watermark, plus the legacy incremental unit tests.
test-incremental:
	PYTHONPATH=src python -m pytest tests/test_incremental.py tests/test_incremental_exact.py -q

# Durable store suites: WAL/snapshot units plus crash-recovery
# bit-identity (kill mid-ingest, restore, compare to offline TDAC.run).
test-store:
	PYTHONPATH=src python -m pytest tests/test_store.py tests/test_store_recovery.py -q

# Network front-end suites: TCP round trips over the JSON-lines
# protocol, framing/backpressure edges, client reconnect behaviour,
# graceful drain bit-identity, and the stdin front-end's error paths.
test-net:
	PYTHONPATH=src python -m pytest tests/test_serving_net.py tests/test_serving_frontend.py -q

# Typed-model + adversarial-scenario suites: per-attribute type routing
# and continuous estimators, the severity-0 identity contract of every
# scenario generator, the degradation sweep/leaderboard, and the mixed
# end-to-end pipelines (offline, delta path, WAL restore) pinned
# bit-identical to the offline reference.
test-scenarios:
	PYTHONPATH=src python -m pytest tests/test_typed_model.py tests/test_scenarios.py tests/test_mixed_pipeline.py -q

test-fast:
	pytest tests/ -m "not slow"

bench:
	pytest benchmarks/ --benchmark-only

# Smallest-config run of the partition-selection perf harness; fails if
# the JSON artefact cannot be produced, so perf regressions that break
# the harness are caught in the ordinary test flow.
bench-smoke:
	mkdir -p benchmarks/output
	PYTHONPATH=src python benchmarks/bench_partition_select.py \
	    --config smoke --repeat 1 \
	    --output benchmarks/output/BENCH_partition_select_smoke.json
	test -s benchmarks/output/BENCH_partition_select_smoke.json

# Reduced-scale run of the claim-index engine harness.  The harness
# itself asserts the vectorized kernels match the loop oracles of
# tests/oracles bit for bit before reporting any speedup, so this
# doubles as a regression gate on engine correctness in the ordinary
# test flow.  The repository root is on the path for tests.oracles.
bench-base:
	mkdir -p benchmarks/output
	PYTHONPATH=src:. python benchmarks/bench_base_algorithms.py \
	    --config smoke --repeat 1 \
	    --output benchmarks/output/BENCH_base_algorithms_smoke.json
	test -s benchmarks/output/BENCH_base_algorithms_smoke.json

# ~30-second scaled-down load/soak against a live `repro serve
# --listen` subprocess: Poisson open-loop traffic, fault injection
# (torn frames, truncated writes, slow-loris) and a SIGKILL-and-restore
# mid-soak.  The harness exits non-zero if any acked claim is lost or
# the recovered snapshot diverges from an offline replay, so serving
# durability is gated in the ordinary test flow.
bench-serving-smoke:
	mkdir -p benchmarks/output
	PYTHONPATH=src python benchmarks/bench_serving.py \
	    --config smoke \
	    --output benchmarks/output/BENCH_serving_smoke.json
	test -s benchmarks/output/BENCH_serving_smoke.json

# Deterministic 2-shard x 2-tenant soak with a mid-soak shard kill and
# restore.  The harness exits non-zero if any acked claim is lost, the
# fault window never rejected a batch, or the merged view diverges from
# an offline replay — so sharded durability is gated in the test flow.
bench-sharding-smoke:
	PYTHONPATH=src python benchmarks/bench_serving.py --mode shard-smoke

# CI-sized run of the exact-delta refit/restore harness.  The harness
# asserts the delta path is bit-identical to the full-refit baseline at
# every watermark (and actually faster) before writing its artefact, so
# incremental exactness and its perf win are gated in the test flow.
bench-incremental-smoke:
	mkdir -p benchmarks/output
	PYTHONPATH=src python benchmarks/bench_incremental.py \
	    --config smoke \
	    --output benchmarks/output/BENCH_incremental_smoke.json
	test -s benchmarks/output/BENCH_incremental_smoke.json

# Small-grid run of the degradation-leaderboard harness.  The harness
# asserts severity-0 metric parity (every scenario curve starts exactly
# at the clean-corpus numbers) before reporting, so the scenario axis is
# gated for correctness in the ordinary test flow.
bench-scenarios-smoke:
	mkdir -p benchmarks/output
	PYTHONPATH=src python benchmarks/bench_scenarios.py \
	    --config smoke \
	    --output benchmarks/output/BENCH_scenarios_smoke.json
	test -s benchmarks/output/BENCH_scenarios_smoke.json

report:
	python -c "from repro.evaluation.report import write_report; \
	           print(write_report('benchmarks/output', 'EXPERIMENTS_MEASURED.md'))"

examples:
	@for f in examples/*.py; do echo "== $$f"; python $$f; echo; done

clean:
	rm -rf benchmarks/output/BENCH_partition_select_smoke.json \
	    benchmarks/output/BENCH_base_algorithms_smoke.json \
	    benchmarks/output/BENCH_serving_smoke.json \
	    benchmarks/output/BENCH_incremental_smoke.json \
	    benchmarks/output/BENCH_scenarios_smoke.json \
	    .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +

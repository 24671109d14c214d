.PHONY: install lint test test-fast test-serving test-incremental test-store test-net test-scenarios test-restore-machine bench bench-scenarios-smoke report examples clean

install:
	pip install -e . --no-build-isolation

test: lint test-serving test-incremental test-store test-net test-scenarios bench-scenarios-smoke
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

# Serving, tenancy and API-stability suites (including the golden
# API-surface snapshot for the v1 promise) plus a live `repro serve
# --smoke` round trip (service snapshots bit-identical to an offline
# replay).
test-serving:
	PYTHONPATH=src python -m pytest tests/test_serving.py tests/test_tenancy.py tests/test_api_stability.py tests/test_api_surface.py -q
	PYTHONPATH=src python -m repro serve --smoke

# Exact-incremental suites: the streaming delta path (append-only
# dataset extension, delta index compile, patched truth vectors,
# certified partition reuse) pinned bit-identical to offline TDAC.run
# at every watermark, plus the legacy incremental unit tests.  The delta
# compile runs the cold compile's kernel and the block views' slice,
# and the Eq. 1 patch the cells build_truth_vectors writes, so the cold
# compile's oracle tests (test_index.py, against the per-fact loop), the
# engine's block-view tests (test_vectorized_engine.py) and the Eq. 1
# oracle tests (test_truth_vectors.py) run here too.
test-incremental:
	PYTHONPATH=src python -m pytest tests/test_index.py tests/test_incremental.py tests/test_incremental_exact.py tests/test_vectorized_engine.py tests/test_truth_vectors.py -q

# Durable store suites: WAL/snapshot units plus crash-recovery
# bit-identity (kill mid-ingest, restore, compare to offline TDAC.run).
test-store:
	PYTHONPATH=src python -m pytest tests/test_store.py tests/test_store_recovery.py -q

# Network front-end suites: TCP round trips over the JSON-lines
# protocol, framing/backpressure edges, client reconnect behaviour,
# graceful drain bit-identity, a SIGKILL of a live `repro serve
# --listen --store-dir` under concurrent writers (no acked claim lost),
# and the stdin front-end's error paths.
test-net:
	PYTHONPATH=src python -m pytest tests/test_serving_net.py tests/test_serving_frontend.py -q

# Typed-model + adversarial-scenario suites: per-attribute type routing
# and continuous estimators, the severity-0 identity contract of every
# scenario generator, the degradation sweep/leaderboard, and the mixed
# end-to-end pipelines (offline, delta path, WAL restore) pinned
# bit-identical to the offline reference.
test-scenarios:
	PYTHONPATH=src python -m pytest tests/test_typed_model.py tests/test_scenarios.py tests/test_mixed_pipeline.py -q

# The crash/restore state machine under its long hypothesis profile:
# fresh random programs of ingests, retries, conflicts, checkpoints,
# compactions, crashes and restores (a few minutes; tier-1 runs the
# derandomized profile).
test-restore-machine:
	RESTORE_MACHINE_PROFILE=long PYTHONPATH=src python -m pytest tests/test_restore_machine.py -q

test-fast:
	pytest tests/ -m "not slow"

bench:
	pytest benchmarks/ --benchmark-only

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
	rm -rf benchmarks/output/BENCH_scenarios_smoke.json \
	    .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +

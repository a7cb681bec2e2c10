# Convenience targets for the reproduction.

.PHONY: install test lint lint-repro check-kernels bench bench-tiny study cache-clean verify-cache test-recovery test-serve test-ring serve-bench test-obs obs-smoke test-gateway gateway-bench experiments examples clean

CACHE_DIR ?= .study-cache

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

lint:
	ruff check src tests

# Full static analysis (the per-file DET001-DET003 determinism and
# PUR001-PUR003 stage-purity and shared-state rules); fails on findings
# not in .repro-lint-baseline.json.
lint-repro:
	PYTHONPATH=src python -m repro.cli lint src

# Full-corpus equivalence of the one-pass CSR build, the gated PII bank
# and the trigger-gated taxonomy coder against their kept references
# (tests/kernel_reference.py), over every distinct text and every
# corpus/perturb.py variant of it, plus byte-identical JSONL from the
# corpus built with pick and with Generator.choice, and byte-identical
# filter fits (Adam on the touched columns against reference_fit); the
# tiny-corpus half runs in tier-1.  About twelve minutes and 0.85 GB on
# a 2-vCPU host.
check-kernels:
	python scripts/check_kernels.py

# Run the study on the staged execution engine; warm re-runs execute
# zero stages.  Scale/parallelism: make study ARGS="--full --jobs 8".
study:
	PYTHONPATH=src python -m repro.cli study --tiny --cache-dir $(CACHE_DIR) $(ARGS)

cache-clean:
	rm -rf $(CACHE_DIR) benchmarks/.study-cache

# Checksum-audit every cached artifact; exits non-zero when any would
# need quarantine-and-recompute on its next load.
verify-cache:
	PYTHONPATH=src python -m repro.cli cache verify --cache-dir $(CACHE_DIR)

# Fault-injection suite: corrupts, truncates, and flakes cached runs and
# asserts recovered results are byte-identical to clean ones.
test-recovery:
	PYTHONPATH=src python -m pytest tests/test_engine_recovery.py -q

# Serving runtime suite: shard-equivalence (shards x corpus profiles),
# overload/backpressure accounting, micro-batcher and telemetry units,
# and the keyed state pass (messages naming handles on several shards).
test-serve:
	PYTHONPATH=src python -m pytest tests/test_serve_runtime.py tests/test_serve_telemetry.py tests/test_serve_state.py -q

# Consistent-hash ring, rebalance schedules, hot-key splitting, and
# shard failover: the elastic-serving equivalence suite.
test-ring:
	PYTHONPATH=src python -m pytest tests/test_serve_ring.py -q

# Deterministic load benchmark of the sharded serving runtime; writes
# benchmarks/reports/BENCH_serve.json.  Scale: make serve-bench
# ARGS="--shards 8 --rate 5000 --policy shed-newest".
serve-bench:
	PYTHONPATH=src python -m repro.cli serve-bench --tiny --shards 4 --check-equivalence $(ARGS)

# Multi-tenant gateway suite: auth/admission conservation, token-bucket
# edges, feed cursors, and the tenant-isolation invariant across shard
# counts, rebalances, and kills.
test-gateway:
	PYTHONPATH=src python -m pytest tests/test_gateway.py tests/test_gateway_feeds.py -q

# Multi-tenant gateway benchmark (per-tenant throughput, throttle rates,
# feed latency, fairness/isolation); gated against the committed
# baseline.  After an intentional change, refresh with:
# PYTHONPATH=src python -m repro.cli gateway-bench --tiny (default
# --report is the baseline path) and commit the result.
gateway-bench:
	PYTHONPATH=src python -m repro.cli gateway-bench --tiny \
		--report gateway-bench-report.json \
		--baseline benchmarks/reports/BENCH_gateway.json $(ARGS)

# Observability suite: tracer/registry/exporter units plus the
# cross-runtime byte-identical-trace and diff-gate integration tests.
test-obs:
	PYTHONPATH=src python -m pytest tests/test_obs.py tests/test_obs_integration.py -q

# The CI observability check, runnable locally: trace two identical
# serve-bench runs, byte-compare their traces and metric snapshots,
# then read them back through the repro obs CLI (diff gates throughput
# regressions >2%).  An elastic run (2,4,3 schedule plus a kill of the
# hottest shard) at --jobs 1 and 2 must match byte for byte too:
# report, trace and metrics.
obs-smoke:
	rm -rf .obs-smoke && mkdir -p .obs-smoke
	PYTHONPATH=src python -m repro.cli serve-bench --tiny --shards 4 \
		--report .obs-smoke/run_a.json --trace-dir .obs-smoke/run_a
	PYTHONPATH=src python -m repro.cli serve-bench --tiny --shards 4 \
		--report .obs-smoke/run_b.json --trace-dir .obs-smoke/run_b
	cmp .obs-smoke/run_a/trace.jsonl .obs-smoke/run_b/trace.jsonl
	cmp .obs-smoke/run_a/metrics.json .obs-smoke/run_b/metrics.json
	for jobs in 1 2; do \
		PYTHONPATH=src python -m repro.cli serve-bench --tiny --shards 4 \
			--rebalance-schedule 2,4,3 --kill-shard hottest --kill-at 0.5 \
			--check-equivalence --jobs $$jobs \
			--report .obs-smoke/elastic_jobs$$jobs.json \
			--trace-dir .obs-smoke/elastic_jobs$$jobs || exit 1; \
	done
	cmp .obs-smoke/elastic_jobs1.json .obs-smoke/elastic_jobs2.json
	cmp .obs-smoke/elastic_jobs1/trace.jsonl .obs-smoke/elastic_jobs2/trace.jsonl
	cmp .obs-smoke/elastic_jobs1/metrics.json .obs-smoke/elastic_jobs2/metrics.json
	PYTHONPATH=src python -m repro.cli obs report .obs-smoke/run_a
	PYTHONPATH=src python -m repro.cli obs diff .obs-smoke/run_a .obs-smoke/run_b

bench:
	pytest benchmarks/ --benchmark-only

bench-tiny:
	REPRO_BENCH_TINY=1 pytest benchmarks/ --benchmark-only

experiments: bench
	python scripts/build_experiments_md.py

examples:
	python examples/quickstart.py
	python examples/moderation_service.py
	python examples/threat_intel_report.py
	python examples/campaign_escalation_study.py
	python examples/live_monitoring.py

clean:
	rm -rf build src/repro.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +

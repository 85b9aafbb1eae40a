# Convenience targets for the CONFLuEnCE/STAFiLOS reproduction.

PYTHON ?= python

.PHONY: install test lint ci perfbench perfbench-selftest bench bench-quick bench-paper bench-smoke bench-train bench-fusion bench-overload bench-shard bench-shard-transport bench-frontier bench-ablation checkpoint-smoke figures examples chaos clean

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

lint:  # ruff when available; otherwise a byte-compile syntax pass.
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	elif $(PYTHON) -c "import ruff" >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks examples; \
	else \
		echo "lint: ruff not installed; falling back to compileall"; \
		$(PYTHON) -m compileall -q src tests benchmarks examples; \
	fi
	$(PYTHON) tools/check_imports.py  # duplicate/unsorted imports (ruff "I" stand-in)

ci: lint test perfbench-selftest checkpoint-smoke bench-train bench-fusion bench-overload bench-shard bench-shard-transport bench-frontier

PERFBENCH_WORKLOADS = fig8-rr fig8-pncwf fig8-qbs-ckpt lr4x-shard2
PERFBENCH_SEED ?= 3
PERFBENCH_SECONDS ?= 30

perfbench-selftest:  # the repo benchmark's own tests (no timed runs)
	$(PYTHON) -m pytest perfbench -q

perfbench: perfbench-selftest  # repo benchmark: per-layer split of all four workloads
	for workload in $(PERFBENCH_WORKLOADS); do \
		$(PYTHON) perfbench/run.py --workload $$workload \
			--seed $(PERFBENCH_SEED) --seconds $(PERFBENCH_SECONDS) \
			--trace 1 || exit 1; \
	done

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-quick:
	REPRO_BENCH_DURATION=120 $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-paper:  # the paper's methodology: 600 s, three seeded runs averaged
	REPRO_BENCH_SEEDS=3 $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-smoke:  # engine micros vs. the committed baselines (2x gate)
	$(PYTHON) -m pytest benchmarks/bench_engine_micro.py \
		-k "dispatch_throughput or windowed_put" -q \
		--benchmark-json=.benchmark-smoke.json
	$(PYTHON) benchmarks/check_baseline.py .benchmark-smoke.json
	$(PYTHON) -m pytest benchmarks/bench_engine_micro.py -q \
		--benchmark-json=.benchmark-engine-micro.json
	$(PYTHON) benchmarks/check_baseline.py .benchmark-engine-micro.json \
		--baseline benchmarks/baselines/engine_micro.json

bench-train:  # event-train throughput: speedup gate + absolute baselines
	$(PYTHON) -m pytest benchmarks/bench_train_throughput.py -q \
		--benchmark-json=.benchmark-train.json
	$(PYTHON) benchmarks/check_baseline.py .benchmark-train.json \
		--baseline benchmarks/baselines/train.json

bench-fusion:  # fused-chain throughput: >=2x speedup gate + absolute baselines
	$(PYTHON) -m pytest benchmarks/bench_fusion.py -q \
		--benchmark-json=.benchmark-fusion.json
	$(PYTHON) benchmarks/check_baseline.py .benchmark-fusion.json \
		--baseline benchmarks/baselines/fusion.json

bench-overload:  # SLO gate: the QoS loop must hold bursty LR under 5 s p99
	$(PYTHON) -m pytest benchmarks/bench_overload_slo.py -q \
		--benchmark-json=.benchmark-overload.json
	$(PYTHON) benchmarks/check_baseline.py .benchmark-overload.json \
		--baseline benchmarks/baselines/overload.json

bench-shard:  # sharded execution: identity gate + absolute baselines
	$(PYTHON) -m pytest benchmarks/bench_shard_scaling.py -q \
		--benchmark-json=.benchmark-shard.json
	$(PYTHON) benchmarks/check_baseline.py .benchmark-shard.json \
		--baseline benchmarks/baselines/shard.json

bench-shard-transport:  # data plane: >=30% per-chunk gate + absolute baselines
	$(PYTHON) -m pytest benchmarks/bench_shard_transport.py -q \
		--benchmark-json=.benchmark-shard-transport.json
	$(PYTHON) benchmarks/check_baseline.py .benchmark-shard-transport.json \
		--baseline benchmarks/baselines/shard_transport.json

bench-frontier:  # frontier tracking: <=10% overhead + purity gate on in-order fig-8
	REPRO_BENCH_DURATION=120 $(PYTHON) -m pytest \
		benchmarks/bench_frontier_overhead.py --benchmark-only -q \
		--benchmark-json=.benchmark-frontier.json
	$(PYTHON) benchmarks/check_baseline.py .benchmark-frontier.json \
		--baseline benchmarks/baselines/frontier.json

bench-ablation:  # multicore SCWF ablation (slow; not part of ci)
	$(PYTHON) -m pytest benchmarks/bench_ablation_multicore.py -q \
		--benchmark-json=.benchmark-ablation.json
	$(PYTHON) benchmarks/check_baseline.py .benchmark-ablation.json \
		--baseline benchmarks/baselines/ablation_multicore.json

checkpoint-smoke:  # checkpoint tests + example + <10% overhead gate on fig-8
	$(PYTHON) -m pytest tests/test_checkpoint.py -q
	$(PYTHON) examples/checkpoint_resume.py
	REPRO_BENCH_DURATION=120 $(PYTHON) -m pytest \
		benchmarks/bench_checkpoint_overhead.py --benchmark-only -q \
		--benchmark-json=.benchmark-checkpoint.json
	$(PYTHON) benchmarks/check_baseline.py .benchmark-checkpoint.json \
		--baseline benchmarks/baselines/checkpoint.json

figures:
	$(PYTHON) -m repro table1
	$(PYTHON) -m repro fig5
	$(PYTHON) -m repro --seeds 1 fig8

examples:
	for script in examples/*.py; do $(PYTHON) $$script || exit 1; done

chaos:  # deterministic fault-injection suite (resilience + chaos runs)
	$(PYTHON) -m pytest tests/test_resilience.py tests/test_chaos.py tests/test_window_forced.py

clean:
	rm -rf .pytest_cache .benchmarks src/repro.egg-info .benchmark-smoke.json .benchmark-checkpoint.json .benchmark-engine-micro.json .benchmark-train.json .benchmark-fusion.json .benchmark-overload.json .benchmark-shard.json .benchmark-shard-transport.json .benchmark-frontier.json .benchmark-ablation.json
	find . -name __pycache__ -type d -exec rm -rf {} +

"""Self-tests of the benchmark: metrics, oracle, workloads, refusal.

Run from the repository root with ``python3 -m pytest perfbench``
(about a minute: every workload runs at a short smoke horizon).
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from child import import_engine

import_engine()

import oracle  # noqa: E402
import run  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import (  # noqa: E402
    execute,
    experiment_config,
    ROOT,
    SCRATCH,
    WORKLOADS,
)

#: Virtual seconds per smoke run: long enough for tolls and a snapshot.
SMOKE_HORIZON_S = 40


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@functools.lru_cache(maxsize=None)
def smoke(workload: str, trace: bool) -> dict:
    report = run.run_child(workload, 1, trace, horizon=SMOKE_HORIZON_S)
    assert report is not None, f"{workload} smoke run broke"
    report["traced"] = trace
    return report


def test_benchmark_json_names_every_emitted_metric_with_its_unit():
    spec = declared()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        PER_LAYER
    )
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_completes_at_smoke_horizon_with_every_metric(workload):
    plain, traced = smoke(workload, False), smoke(workload, True)
    for report in (plain, traced):
        assert report["failures"] == 0 and report["dead_letters"] == 0
        assert report["digest"] == plain["digest"], "runs disagree"
    end = run.end_to_end([plain])
    assert [(name, m["unit"]) for name, m in end.items()] == list(
        run.END_TO_END
    )
    assert all(m["value"] > 0 for m in end.values())
    layers = run.per_layer([plain, traced])
    assert [(name, m["unit"]) for name, m in layers.items()] == list(
        PER_LAYER
    )
    assert layers["trace.overhead_ratio"]["value"] > 0


def test_layer_split_follows_the_director():
    scwf = smoke("fig8-rr", True)["layers"]
    threaded = smoke("fig8-pncwf", True)["layers"]
    assert scwf["stafilos.run_iteration.n"] > 0
    assert scwf["threaded.run_iteration.n"] == 0
    assert threaded["threaded.next_window_deadline.n"] > 0
    assert all(
        value == 0
        for name, value in threaded.items()
        if name.startswith("stafilos.")
    )
    assert scwf["sqldb.execute.n"] > 0 and scwf["windows.put.n"] > 0


def test_perturbed_sink_record_fails_the_digest_check():
    outcome = execute(WORKLOADS["fig8-rr"], 1, horizon_s=SMOKE_HORIZON_S)
    expected = {"digest": oracle.digest(outcome.records, outcome.counters)}
    report = {"digest": expected["digest"], "failures": 0, "dead_letters": 0}
    assert run.verdict(report, expected)
    t, value, timestamp = outcome.records[0][0]
    outcome.records[0][0] = (t, value, timestamp + 1)
    report["digest"] = oracle.digest(outcome.records, outcome.counters)
    assert not run.verdict(report, expected)


def test_sharded_smoke_run_matches_the_single_process_oracle():
    from repro.shard import run_single_canonical

    workload = WORKLOADS["lr4x-shard2"]
    outcome = execute(workload, 1, horizon_s=SMOKE_HORIZON_S)
    single = run_single_canonical(
        experiment_config(workload, SMOKE_HORIZON_S), 1
    )
    assert outcome.records == [single["toll"], single["accident"]]


def test_references_cover_every_trace_seed_at_the_workload_horizon():
    references = oracle.load_references()
    for name, workload in WORKLOADS.items():
        for seed in range(oracle.REFERENCE_SEEDS):
            entry = oracle.reference(references, name, seed)
            assert entry["horizon_s"] == workload.horizon_s


def test_refuses_to_run_without_the_engine_source():
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            Path(run.__file__).parent,
            Path(bare) / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        result = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fig8-rr",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout

"""Record the reference outputs every benchmark run is checked against.

Usage (from the repository root)::

    python3 perfbench/record.py [--workload NAME ...] [--jobs N]

Runs each workload once on every trace seed ``0 .. REFERENCE_SEEDS-1``
and writes its output digest and virtual-time metrics to
``references.json``, replacing the entries of the workloads recorded.
For ``lr4x-shard2`` it also compares the merged sharded traces with the
single-process oracle (``run_single_canonical``) and records how many
sink records differ (0 when placement identity holds).
Re-record only when a change is meant to alter the engine's output.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import oracle
from child import import_engine
from workloads import (
    execute,
    experiment_config,
    percentile_s,
    SCRATCH,
    WORKLOADS,
)


def record_one(name: str, seed: int) -> dict:
    """Run *name* on trace *seed* and return its reference entry."""
    workload = WORKLOADS[name]
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as workdir:
        outcome = execute(
            workload, seed, checkpoint_dir=str(Path(workdir) / "ckpt")
        )
    if outcome.failures or outcome.dead_letters:
        raise AssertionError(
            f"{name} seed {seed}: {outcome.failures} failures, "
            f"{outcome.dead_letters} dead letters"
        )
    entry = {}
    if outcome.sharded is not None:
        from repro.shard import run_single_canonical

        single = run_single_canonical(
            experiment_config(workload, workload.horizon_s), seed
        )
        pairs = zip(
            (outcome.sharded.toll_trace, outcome.sharded.accident_trace),
            (single["toll"], single["accident"]),
        )
        differing = sum(
            sum(ours != theirs for ours, theirs in zip(mine, oracle_trace))
            + abs(len(mine) - len(oracle_trace))
            for mine, oracle_trace in pairs
        )
        # Recorded, not asserted: a divergence is an engine defect to
        # report, and the sharded output stays the regression reference.
        entry["single_process_differing_records"] = differing
    return {
        **entry,
        "horizon_s": workload.horizon_s,
        "digest": oracle.digest(outcome.records, outcome.counters),
        "tolls": len(outcome.records[0]),
        "toll_p50_s": percentile_s(outcome.toll_response_us, 50),
        "toll_p99_s": percentile_s(outcome.toll_response_us, 99),
        "capacity_rps": outcome.capacity_rps,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS)
    )
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    jobs = [
        (name, seed)
        for name in names
        for seed in range(oracle.REFERENCE_SEEDS)
    ]
    # One fresh interpreter per entry, as in a measured run: some engine
    # state (checkpoint payload sizes) depends on what ran before in the
    # same process.  The workers are not daemonic, so the sharded
    # workload can start its own worker processes inside them.
    with ProcessPoolExecutor(
        max_workers=args.jobs,
        mp_context=multiprocessing.get_context("spawn"),
        initializer=import_engine,
        max_tasks_per_child=1,
    ) as pool:
        entries = list(pool.map(record_one, *zip(*jobs)))
    references = (
        oracle.load_references() if oracle.REFERENCES.exists() else {}
    )
    for name in names:
        references[name] = {}
    for (name, seed), entry in zip(jobs, entries):
        references[name][str(seed)] = entry
        print(f"{name} seed {seed}: {entry}")
    oracle.REFERENCES.write_text(
        json.dumps(references, indent=1, sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    main()

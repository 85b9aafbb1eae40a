"""Output oracle: a digest of what a run produced, and its references.

A fig-8 run's digest covers both sinks' records as ``(engine_time,
value, timestamp)`` tuples (never ``CWEvent`` objects, which compare by
identity) and the director's final ``statistics.snapshot()`` with the
wall-clock checkpoint durations left out.  The sharded run's digest
covers the merged canonical sink traces and every per-shard counter.

``references.json`` holds the digest recorded for each workload and
trace seed (``record.py`` writes it); a run whose digest differs has
changed the program's output and counts as failed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

REFERENCES = Path(__file__).with_name("references.json")

#: Traces are generated from ``seed % REFERENCE_SEEDS``: every trace the
#: benchmark can run has a recorded reference.
REFERENCE_SEEDS = 16

#: Engine counters that hold wall-clock readings, not engine output.
WALL_CLOCK_COUNTERS = frozenset(
    {"checkpoint_duration_us_last", "checkpoint_duration_us_total"}
)


def sink_records(system: Any) -> list[list[tuple]]:
    """Both sinks' records as plain ``(t, value, timestamp)`` tuples."""
    return [
        [
            (t, getattr(item, "value", item), getattr(item, "timestamp", None))
            for t, item in sink.items
        ]
        for sink in (system.toll_out, system.accident_out)
    ]


def engine_counters(director: Any) -> dict:
    """The director's final statistics snapshot, wall-clock fields dropped."""
    snapshot = director.statistics.snapshot()
    engine = snapshot.get("__engine__")
    if engine is not None:
        snapshot["__engine__"] = {
            key: value
            for key, value in engine.items()
            if key not in WALL_CLOCK_COUNTERS
        }
    return snapshot


def shard_counters(sharded: Any) -> dict:
    """Every per-shard report except the traces (merged separately)."""
    return {
        repr(group): {
            key: value for key, value in report.items() if key != "traces"
        }
        for group, report in sorted(
            sharded.per_shard.items(), key=lambda item: repr(item[0])
        )
    }


def digest(records: list, counters: Any) -> str:
    """SHA-256 over the reprs of the records and the counters."""
    sha = hashlib.sha256()
    for sink in records:
        for record in sink:
            sha.update(repr(record).encode())
            sha.update(b"\n")
        sha.update(b"--\n")
    sha.update(repr(counters).encode())
    return sha.hexdigest()


def trace_seed(seed: int) -> int:
    """The recorded trace seed a benchmark ``--seed`` selects."""
    return seed % REFERENCE_SEEDS


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def reference(references: dict, workload: str, seed: int) -> dict:
    """The recorded outcome of *workload* on trace *seed*."""
    try:
        return references[workload][str(seed)]
    except KeyError:
        raise KeyError(
            f"no reference recorded for {workload} trace seed {seed}; "
            "run perfbench/record.py"
        ) from None

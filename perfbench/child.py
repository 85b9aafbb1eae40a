"""One measured run in a fresh interpreter; prints one JSON line.

Usage: ``python3 perfbench/child.py WORKLOAD TRACE_SEED WORKDIR
[--trace] [--horizon S]``.  The parent (``run.py``) starts one of these
per measured run so that peak RSS and interpreter state never carry
over from one run to the next.  WORKDIR is a fresh scratch directory
(checkpoint snapshots go there).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

from workloads import ROOT


def import_engine() -> None:
    """Put this checkout's ``src`` first on the path and import ``repro``.

    Refuses to measure any other copy of the engine (an installed one).
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no engine source at {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"imported repro from {repro.__file__}, not {src}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("workdir")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--horizon", type=int, default=None)
    args = parser.parse_args(argv)
    import_engine()
    import layers
    import oracle
    from workloads import execute, percentile_s, WORKLOADS

    workload = WORKLOADS[args.workload]
    trace = layers.LayerTrace() if args.trace else None
    if trace is not None:
        trace.install()
    try:
        outcome = execute(
            workload,
            args.seed,
            horizon_s=args.horizon,
            checkpoint_dir=str(Path(args.workdir) / "checkpoints"),
        )
    finally:
        if trace is not None:
            trace.uninstall()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report = {
        "setup_s": outcome.setup_s,
        "run_s": outcome.run_s,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": max(own, workers) / 1024,
        "toll_p99_s": percentile_s(outcome.toll_response_us, 99),
        "capacity_rps": outcome.capacity_rps,
        "failures": outcome.failures,
        "dead_letters": outcome.dead_letters,
        "digest": oracle.digest(outcome.records, outcome.counters),
    }
    if trace is not None:
        report["layers"] = trace.metrics(outcome)
    print(json.dumps(report), flush=True)
    # Skip interpreter teardown: freeing the run's heap only lengthens the
    # run's slot, and every file and worker process is already closed.
    os._exit(0)


if __name__ == "__main__":
    main()

"""Benchmark entry point: time one workload end to end, check its output.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig8-rr --seed 3 --seconds 30 --trace 0

Each measured run is a fresh interpreter (``child.py``) with its own
scratch directory, so peak RSS and caches never carry over.  With
``--trace 0`` it keeps starting runs while the next one fits in
``--seconds`` (at least ``MIN_RUNS``) and reports the median of each
end-to-end metric.  With ``--trace 1`` it makes one plain run and one run
with the per-layer wrappers of ``layers.py`` installed, and reports the
per-layer split of the traced run plus its overhead against the plain
one.

Every run's output digest must equal the reference recorded for the
workload's trace seed (``--seed`` modulo ``oracle.REFERENCE_SEEDS``), and
the run must end with no firing failures and no dead letters; any other
run counts as failed.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracle
from layers import PER_LAYER
from workloads import ROOT, SCRATCH, WORKLOADS

HERE = Path(__file__).resolve().parent

#: Every end-to-end metric, in report order, with its unit.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("toll_p99_s", "s"),
)
#: Fewest plain runs per invocation, so every median has company.
MIN_RUNS = 2
#: Wall seconds after which a run still going is killed (counted as
#: failed), so the whole invocation ends within three minutes.
DEADLINE_S = 170


def run_child(
    workload: str,
    seed: int,
    trace: bool,
    horizon: int | None = None,
    timeout: float = DEADLINE_S,
) -> dict | None:
    """One measured run in a fresh interpreter; ``None`` if it broke."""
    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH)
    command = [
        sys.executable, str(HERE / "child.py"), workload, str(seed), workdir
    ]
    if trace:
        command.append("--trace")
    if horizon is not None:
        command += ["--horizon", str(horizon)]
    # A session of its own, so a hung run is killed with its workers.
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        print(f"run killed after {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if process.returncode != 0:
        print(f"run exited with {process.returncode}", file=sys.stderr)
        return None
    return json.loads(stdout.strip().splitlines()[-1])


def verdict(report: dict | None, expected: dict) -> bool:
    """Whether one run completed with the recorded output and no failures."""
    if report is None:
        return False
    if report["digest"] != expected["digest"]:
        print(
            f"output digest {report['digest'][:12]} differs from the "
            f"reference {expected['digest'][:12]}",
            file=sys.stderr,
        )
        return False
    if report["failures"] or report["dead_letters"]:
        print(
            f"{report['failures']} firing failures, "
            f"{report['dead_letters']} dead letters",
            file=sys.stderr,
        )
        return False
    return True


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run the workload; returns ``(reports, attempted, failed)``."""
    expected = oracle.reference(
        oracle.load_references(), workload, seed
    )
    if expected["horizon_s"] != WORKLOADS[workload].horizon_s:
        raise SystemExit(
            f"the {workload} reference was recorded at another horizon; "
            "run perfbench/record.py"
        )
    good: list[dict] = []
    attempted = failed = 0
    started = time.perf_counter()
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - started
        if trace:
            if attempted == 2:
                break
            traced = attempted == 1  # a plain run, then a traced one
        elif attempted >= MIN_RUNS and elapsed + longest > seconds:
            break
        else:
            traced = False
        run_start = time.perf_counter()
        report = run_child(
            workload, seed, traced, timeout=DEADLINE_S - elapsed
        )
        longest = max(longest, time.perf_counter() - run_start)
        attempted += 1
        if report is not None:
            print(
                f"run {attempted}: run_s {report['run_s']:.3f} "
                f"setup_s {report['setup_s']:.3f}",
                file=sys.stderr,
            )
        if verdict(report, expected):
            report["traced"] = traced
            good.append(report)
        else:
            failed += 1
            if report is None:
                break  # a broken or hung run: stop before the deadline
    return good, attempted, failed


def end_to_end(good: list[dict]) -> dict:
    return {
        name: {
            "value": statistics.median(report[name] for report in good),
            "unit": unit,
        }
        for name, unit in END_TO_END
    }


def per_layer(good: list[dict]) -> dict:
    plain = [report for report in good if not report["traced"]]
    traced = [report for report in good if report["traced"]]
    if not plain or not traced:
        raise RuntimeError("the traced run or its plain twin failed")
    layer_values = dict(traced[0]["layers"])
    layer_values["trace.run_s"] = traced[0]["run_s"]
    layer_values["trace.overhead_ratio"] = (
        traced[0]["run_s"] / plain[0]["run_s"]
    )
    return {
        name: {"value": layer_values[name], "unit": unit}
        for name, unit in PER_LAYER
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no engine source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seed = oracle.trace_seed(args.seed)
    good, attempted, failed = measure(
        args.workload, seed, args.seconds, bool(args.trace)
    )
    if not good:
        print("no run completed correctly", file=sys.stderr)
        return 1
    metrics = per_layer(good) if args.trace else end_to_end(good)
    # The thrash-point rate is fixed by the trace seed and quantized to the
    # 10 s response buckets, so it is printed, not reported as a metric.
    print(
        f"{args.workload}  trace seed {seed}  runs {attempted}  "
        f"failed_share {failed / attempted:.3f}  "
        f"capacity_rps {good[0]['capacity_rps']:.4g}"
    )
    for name, metric in metrics.items():
        print(f"  {name:34} {metric['value']:>16.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

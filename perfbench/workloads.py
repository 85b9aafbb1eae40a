"""The benchmark's four workloads and how one run of each is timed.

Each workload is a batch job: a seeded Linear Road trace that the engine
consumes in virtual time as fast as it can, so wall-clock metrics are
work done per wall second while the virtual-time results (sink traces,
counters, response times) are fixed by the seed.

One run is split into *set-up* (generate the trace, build the workflow,
attach the director, initialize the actors; for the sharded workload,
until every worker reports ready) and the *run* proper
(``SimulationRuntime.run``; for the sharded workload the rest of
``run_sharded``).  The split is taken by wrapping those entry points
with timers, so the harness functions run unmodified.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

from layers import Patches, subclasses_defining

#: The checkout root (``src/`` holds the engine under test).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for per-run directories, inside the checkout.
SCRATCH = ROOT / ".perfbench_tmp"
#: The shard workload's worker count: one per CPU of a 2-CPU machine,
#: fixed so outputs and timings compare across machines.
SHARD_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    #: Virtual seconds simulated per run.
    horizon_s: int


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fig8-rr", 200),
        Workload("fig8-pncwf", 150),
        Workload("fig8-qbs-ckpt", 200),
        Workload("lr4x-shard2", 600),
    )
}


def experiment_config(
    workload: Workload,
    horizon_s: int,
    checkpoint_dir: Optional[str] = None,
):
    """The harness configuration a workload runs (seed applied later)."""
    from repro.harness import ExperimentConfig, SchedulerSpec
    from repro.harness.configs import figure8_configs
    from repro.linearroad.generator import WorkloadConfig

    rr, qbs, _, pncwf = figure8_configs()
    if workload.name == "fig8-rr":
        return rr.scaled_duration(horizon_s)
    if workload.name == "fig8-pncwf":
        return pncwf.scaled_duration(horizon_s)
    if workload.name == "fig8-qbs-ckpt":
        if checkpoint_dir is None:
            raise ValueError("fig8-qbs-ckpt needs a checkpoint directory")
        return ExperimentConfig(
            scheduler=qbs.scheduler,
            workload=qbs.workload,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every_s=30,
        ).scaled_duration(horizon_s)
    if workload.name == "lr4x-shard2":
        return ExperimentConfig(
            scheduler=SchedulerSpec(kind="FIFO"),
            workload=WorkloadConfig(
                duration_s=horizon_s, peak_rate=100, l_rating=4.0
            ),
        )
    raise KeyError(workload.name)


@dataclass
class Outcome:
    """What one run produced: timings, outputs and end state."""

    setup_s: float
    run_s: float
    #: Toll-notification response times in virtual microseconds.
    toll_response_us: list[int]
    #: Input reports/s at the thrash point (the peak rate if none).
    capacity_rps: float
    failures: int
    dead_letters: int
    #: Output records and counters the reference digest covers.
    records: list = field(default_factory=list)
    counters: Any = None
    director: Any = None
    sharded: Any = None


class _PhaseClock:
    """Marks where set-up ends and the run begins, by wrapping entry points.

    ``initialize_all`` is set-up even when ``SimulationRuntime.run``
    calls it lazily, so initialization inside the run is moved back.
    """

    def __init__(self) -> None:
        self.patches = Patches()
        self.run_start: Optional[float] = None
        self.run_end: Optional[float] = None
        self.init_in_run = 0.0
        self.init_depth = 0
        self.spawn_end: Optional[float] = None

    def install(self) -> None:
        from repro.core.director import Director
        from repro.shard.coordinator import ShardCoordinator
        from repro.simulation.runtime import SimulationRuntime

        clock = self

        def around_run(run: Callable) -> Callable:
            @functools.wraps(run)
            def timed(*args, **kwargs):
                if clock.run_start is None:
                    clock.run_start = perf_counter()
                try:
                    return run(*args, **kwargs)
                finally:
                    clock.run_end = perf_counter()

            return timed

        def around_init(init: Callable) -> Callable:
            # Overrides chain to ``super().initialize_all()``: only the
            # outermost call is timed.
            @functools.wraps(init)
            def timed(*args, **kwargs):
                clock.init_depth += 1
                start = perf_counter()
                try:
                    return init(*args, **kwargs)
                finally:
                    clock.init_depth -= 1
                    if clock.init_depth == 0 and clock.run_start is not None:
                        clock.init_in_run += perf_counter() - start

            return timed

        def around_spawn(spawn: Callable) -> Callable:
            @functools.wraps(spawn)
            def timed(*args, **kwargs):
                try:
                    return spawn(*args, **kwargs)
                finally:
                    clock.spawn_end = perf_counter()

            return timed

        self.patches.method(SimulationRuntime, "run", around_run)
        for cls in subclasses_defining(Director, "initialize_all"):
            self.patches.method(cls, "initialize_all", around_init)
        self.patches.method(ShardCoordinator, "_spawn", around_spawn)

    def uninstall(self) -> None:
        self.patches.undo()


def execute(
    workload: Workload,
    seed: int,
    horizon_s: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
) -> Outcome:
    """One timed run of *workload* on the trace generated from *seed*."""
    horizon = workload.horizon_s if horizon_s is None else horizon_s
    config = experiment_config(workload, horizon, checkpoint_dir)
    phases = _PhaseClock()
    phases.install()
    try:
        if workload.name == "lr4x-shard2":
            return _execute_sharded(config, seed, phases)
        return _execute_single(config, seed, phases)
    finally:
        phases.uninstall()


def _capacity(config, samples) -> float:
    """Thrash-point input rate; a run that never thrashed held the peak."""
    from repro.harness.experiment import ExperimentResult
    from repro.linearroad.metrics import ResponseTimeSeries

    series = ResponseTimeSeries.from_samples(
        samples, config.bucket_s, config.workload.duration_s
    )
    rate = ExperimentResult(config, series).thrash_input_rate()
    return float(config.workload.peak_rate if rate is None else rate)


def _execute_single(config, seed: int, phases: _PhaseClock) -> Outcome:
    from repro.harness.experiment import _execute_seed

    from oracle import engine_counters, sink_records

    start = perf_counter()
    result, director, system = _execute_seed(config, seed)
    if phases.run_start is None or phases.run_end is None:
        raise RuntimeError("SimulationRuntime.run was never called")
    samples = system.toll_response_times_us
    return Outcome(
        setup_s=phases.run_start - start + phases.init_in_run,
        run_s=phases.run_end - phases.run_start - phases.init_in_run,
        toll_response_us=[response for _, response in samples],
        capacity_rps=_capacity(config, samples),
        failures=result.failures,
        dead_letters=result.dead_letters,
        records=sink_records(system),
        counters=engine_counters(director),
        director=director,
    )


def _execute_sharded(config, seed: int, phases: _PhaseClock) -> Outcome:
    from repro.harness.experiment import run_sharded

    from oracle import shard_counters

    start = perf_counter()
    sharded = run_sharded(
        config, seed=seed, shards=SHARD_WORKERS, shard_key="xway"
    )
    end = perf_counter()
    if phases.spawn_end is None:
        raise RuntimeError("the shard coordinator never spawned workers")
    samples = sorted(
        sample
        for shard in sharded.per_shard.values()
        for sample in shard["toll_response_times_us"]
    )
    return Outcome(
        setup_s=phases.spawn_end - start,
        run_s=end - phases.spawn_end,
        toll_response_us=[response for _, response in samples],
        capacity_rps=_capacity(config, samples),
        failures=sharded.failures,
        dead_letters=sharded.dead_letters,
        records=[sharded.toll_trace, sharded.accident_trace],
        counters=shard_counters(sharded),
        sharded=sharded,
    )


def percentile_s(samples_us: list[int], q: float) -> float:
    """Nearest-rank percentile of microsecond samples, in seconds."""
    if not samples_us:
        raise ValueError("no toll notifications to take a percentile of")
    ordered = sorted(samples_us)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1] / 1e6

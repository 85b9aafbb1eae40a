"""Multicore-aware SCWF (the §5 scale-up extension)."""

import pytest

from repro.core import MapActor, SinkActor, SourceActor, Workflow
from repro.core.exceptions import DirectorError
from repro.simulation import CostModel, SimulationRuntime, VirtualClock
from repro.stafilos import (
    MulticoreSCWFDirector,
    QuantumPriorityScheduler,
    RoundRobinScheduler,
)


def wide_workflow(arrivals, branches=4, cost_us=1_000):
    """One source fanning to several equally heavy branches."""
    workflow = Workflow("wide")
    source = SourceActor("src", arrivals=arrivals)
    source.add_output("out")
    sink = SinkActor("sink")
    workflow.add(source)
    workflow.add(sink)
    for index in range(branches):
        branch = MapActor(f"b{index}", lambda v: v)
        branch.nominal_cost_us = cost_us
        workflow.add(branch)
        workflow.connect(source, branch)
        workflow.connect(branch, sink)
    return workflow, sink


def finish_time(cores, arrivals, branches=4, train_size=1):
    workflow, sink = wide_workflow(arrivals, branches)
    clock = VirtualClock()
    director = MulticoreSCWFDirector(
        RoundRobinScheduler(10_000),
        clock,
        CostModel(),
        cores=cores,
        train_size=train_size,
    )
    director.attach(workflow)
    SimulationRuntime(director, clock).run(60.0, drain=True)
    assert len(sink.values) == len(arrivals) * branches
    return clock.now_us, director


class TestMulticore:
    def test_cores_must_be_positive(self):
        with pytest.raises(DirectorError):
            MulticoreSCWFDirector(
                RoundRobinScheduler(10_000),
                VirtualClock(),
                CostModel(),
                cores=0,
            )

    def test_one_core_matches_baseline_scwf(self):
        from repro.stafilos import SCWFDirector

        arrivals = [(0, i) for i in range(10)]
        workflow, sink = wide_workflow(arrivals)
        clock = VirtualClock()
        director = SCWFDirector(
            RoundRobinScheduler(10_000), clock, CostModel()
        )
        director.attach(workflow)
        SimulationRuntime(director, clock).run(60.0, drain=True)
        baseline_time = clock.now_us
        single_core_time, _ = finish_time(1, arrivals)
        assert single_core_time == baseline_time

    def test_more_cores_finish_sooner(self):
        arrivals = [(0, i) for i in range(20)]
        t1, _ = finish_time(1, arrivals)
        t2, _ = finish_time(2, arrivals)
        t4, _ = finish_time(4, arrivals)
        assert t1 > t2 > t4
        # Rough proportionality for an embarrassingly parallel burst.
        assert t1 / t4 > 2.0

    def test_speedup_saturates_at_runnable_breadth(self):
        arrivals = [(0, i) for i in range(20)]
        # Runnable breadth: 4 branches + the sink = 5 distinct actors.
        t8, _ = finish_time(8, arrivals, branches=4)
        t16, _ = finish_time(16, arrivals, branches=4)
        assert t16 == t8  # extra cores beyond the breadth are pure idle

    def test_mean_parallelism_telemetry(self):
        arrivals = [(0, i) for i in range(20)]
        _, director = finish_time(4, arrivals)
        assert 1.0 < director.mean_parallelism() <= 4.0

    @pytest.mark.parametrize("train_size", [1, 64, None])
    def test_cost_sharing_at_every_train_size(self, train_size):
        # Parallelism is sampled per dispatched item, so a train shares
        # cost across cores exactly like one-item dispatch.
        arrivals = [(0, i) for i in range(20)]
        now_us, director = finish_time(4, arrivals, train_size=train_size)
        assert now_us == 47_435
        assert director.mean_parallelism() == 2.125

    def test_linear_road_capacity_grows_with_cores(self):
        from repro.harness import default_cost_model
        from repro.linearroad import build_linear_road, LinearRoadWorkload
        from repro.linearroad.generator import WorkloadConfig
        from repro.linearroad.metrics import ResponseTimeSeries

        def thrash(cores):
            workload = LinearRoadWorkload(
                WorkloadConfig(duration_s=300, peak_rate=260, seed=1)
            )
            system = build_linear_road(workload.arrivals())
            clock = VirtualClock()
            director = MulticoreSCWFDirector(
                QuantumPriorityScheduler(500),
                clock,
                default_cost_model(),
                cores=cores,
            )
            director.attach(system.workflow)
            SimulationRuntime(director, clock).run(300)
            series = ResponseTimeSeries.from_samples(
                system.toll_response_times_us, 10, 300
            )
            return series.thrash_time_s()

        single = thrash(1)
        quad = thrash(4)
        assert single is not None
        assert quad is None or quad > single

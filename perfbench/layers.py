"""Per-layer wall-clock split, measured from outside the engine.

The engine has no self-profile mode, so the traced run replaces the
public entry points of each ``repro`` layer with ``perf_counter_ns``
wrappers installed from here; no file under ``src/`` changes.  The
wrappers share one span stack, so every span knows how much of its
interval its wrapped children covered: a layer's *self* time is its
total minus that part.  A wrapped call that re-enters the same span name
(``super().fire`` chains, ``put_batch`` calling ``put``) is folded into
the outer span rather than counted twice.

:class:`Patches` does the replacing and undoing; :class:`Spans` holds
the counters; :class:`LayerTrace` wires every layer and turns the
counters plus the run's end state into the per-layer metrics of
``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import os
import sys
from time import perf_counter_ns
from typing import Any, Callable, Optional

#: Every per-layer metric, in report order, with its unit.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("simulation.iterations", "count"),
    ("simulation.idle_jumps", "count"),
    ("simulation.self_s", "s"),
    ("stafilos.run_iteration.n", "count"),
    ("stafilos.run_iteration.self_s", "s"),
    ("stafilos.get_next_actor.n", "count"),
    ("stafilos.get_next_actor.s", "s"),
    ("stafilos.next_window_deadline.n", "count"),
    ("stafilos.next_window_deadline.s", "s"),
    ("stafilos.fire_window_timeouts.n", "count"),
    ("stafilos.fire_window_timeouts.s", "s"),
    ("stafilos.backlog_end", "count"),
    ("threaded.run_iteration.n", "count"),
    ("threaded.run_iteration.self_s", "s"),
    ("threaded.next_window_deadline.n", "count"),
    ("threaded.next_window_deadline.s", "s"),
    ("threaded.fire_window_timeouts.n", "count"),
    ("threaded.fire_window_timeouts.s", "s"),
    ("windows.next_deadline.n", "count"),
    ("windows.next_deadline.s", "s"),
    ("windows.force_timeout.n", "count"),
    ("windows.force_timeout.s", "s"),
    ("windows.force_timeout.yield", "windows/call"),
    ("windows.put.n", "count"),
    ("windows.put.s", "s"),
    ("windows.groups_end", "count"),
    ("windows.groups_max", "count"),
    ("sqldb.execute.n", "count"),
    ("sqldb.execute.s", "s"),
    ("actors.fire.n", "count"),
    ("actors.fire.self_s", "s"),
    ("checkpoint.capture.n", "count"),
    ("checkpoint.capture.s", "s"),
    ("checkpoint.serialize.s", "s"),
    ("checkpoint.publish.s", "s"),
    ("checkpoint.bytes_last", "bytes"),
    ("checkpoint.bytes_total", "bytes"),
    ("shard.encode.s", "s"),
    ("shard.decode.s", "s"),
    ("shard.bytes_sent", "bytes"),
    ("shard.chunks_sent", "count"),
    ("shard.recv_wait.s", "s"),
    ("shard.spawn.s", "s"),
    ("linearroad.arrivals.s", "s"),
    ("linearroad.build.s", "s"),
    ("linearroad.reports", "count"),
    ("trace.run_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class Patches:
    """Attribute replacements on ``repro`` classes and modules, undoable."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def method(self, cls: type, attr: str, make: Callable) -> None:
        """Replace ``cls.attr`` (defined on *cls* itself) by ``make(it)``."""
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._undo.append((cls, attr, original))

    def function(self, func: Callable, make: Callable) -> None:
        """Replace *func* wherever a loaded ``repro`` module binds it.

        Modules import functions by name (``from .snapshot import
        capture_snapshot``), so the call sites see their own module's
        binding; every such binding is swapped for one wrapper.
        """
        replacement = make(func)
        for name, module in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            bound = [
                attr for attr, value in vars(module).items() if value is func
            ]
            for attr in bound:
                setattr(module, attr, replacement)
                self._undo.append((module, attr, func))

    def undo(self) -> None:
        """Restore every original, newest first; a second call is a no-op."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Spans:
    """Per-name counters fed by timing wrappers over one span stack.

    Each name maps to ``[calls, total_ns, self_ns, result_sum]``;
    ``result_sum`` adds up ``measure(result)`` for wrappers given one.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}
        self._stack: list[list] = []

    def timed(
        self, name: str, measure: Optional[Callable[[Any], int]] = None
    ) -> Callable[[Callable], Callable]:
        """A wrapper factory timing calls as span *name*."""
        stats = self.stats.setdefault(name, [0, 0, 0, 0])
        stack = self._stack

        def make(func: Callable) -> Callable:
            @functools.wraps(func)
            def span(*args, **kwargs):
                if stack and stack[-1][0] is stats:
                    return func(*args, **kwargs)
                frame = [stats, 0]
                stack.append(frame)
                start = perf_counter_ns()
                try:
                    result = func(*args, **kwargs)
                finally:
                    elapsed = perf_counter_ns() - start
                    stack.pop()
                    stats[0] += 1
                    stats[1] += elapsed
                    stats[2] += elapsed - frame[1]
                    if stack:
                        stack[-1][1] += elapsed
                if measure is not None:
                    stats[3] += measure(result)
                return result

            return span

        return make

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0])[1] / 1e9

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0])[2] / 1e9

    def result_sum(self, name: str) -> int:
        return self.stats.get(name, [0, 0, 0, 0])[3]


def subclasses_defining(base: type, attr: str) -> list[type]:
    """*base* and every loaded subclass whose own body defines *attr*."""
    found, todo, seen = [], [base], set()
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if attr in cls.__dict__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


class LayerTrace:
    """Installed layer wrappers plus the metrics they add up to."""

    def __init__(self) -> None:
        self.spans = Spans()
        self.patches = Patches()
        #: Every window operator built while installed (end-state scan).
        self.window_operators: list = []

    def install(self) -> None:
        # Import every layer first, so subclass scans see all classes.
        import repro.linearroad.actors  # noqa: F401
        from repro.checkpoint import checkpointer, DirectoryCheckpointStore
        from repro.core.actors import Actor
        from repro.core.windows import WindowOperator
        from repro.linearroad.generator import LinearRoadWorkload
        from repro.linearroad.workflow import build_linear_road
        from repro.shard.coordinator import ShardCoordinator
        from repro.simulation.clock import VirtualClock
        from repro.simulation.runtime import SimulationRuntime
        from repro.simulation.threaded import ThreadedCWFDirector
        from repro.sqldb.database import Database
        from repro.stafilos.abstract_scheduler import AbstractScheduler
        from repro.stafilos.scwf_director import SCWFDirector

        spans, patch = self.spans, self.patches
        patch.method(
            SimulationRuntime, "run", spans.timed("simulation.run", int)
        )
        patch.method(VirtualClock, "jump_to", spans.timed("clock.jump_to"))
        for layer, director in (
            ("stafilos", SCWFDirector),
            ("threaded", ThreadedCWFDirector),
        ):
            for attr in (
                "run_iteration",
                "next_window_deadline",
                "fire_window_timeouts",
            ):
                patch.method(
                    director, attr, spans.timed(f"{layer}.{attr}")
                )
        for cls in subclasses_defining(AbstractScheduler, "get_next_actor"):
            patch.method(
                cls, "get_next_actor", spans.timed("stafilos.get_next_actor")
            )
        patch.method(
            WindowOperator, "next_deadline",
            spans.timed("windows.next_deadline"),
        )
        patch.method(
            WindowOperator, "force_timeout",
            spans.timed("windows.force_timeout", len),
        )
        for attr in ("put", "put_batch"):
            patch.method(WindowOperator, attr, spans.timed("windows.put"))
        operators = self.window_operators

        def track_operator(init: Callable) -> Callable:
            @functools.wraps(init)
            def tracked(operator, *args, **kwargs):
                init(operator, *args, **kwargs)
                operators.append(operator)

            return tracked

        patch.method(WindowOperator, "__init__", track_operator)
        for attr in ("execute", "execute_statement"):
            patch.method(Database, attr, spans.timed("sqldb.execute"))
        for attr in ("fire", "fire_batch"):
            for cls in subclasses_defining(Actor, attr):
                patch.method(cls, attr, spans.timed("actors.fire"))
        patch.function(
            checkpointer.capture_snapshot, spans.timed("checkpoint.capture")
        )
        patch.function(
            checkpointer.serialize_snapshot,
            spans.timed("checkpoint.serialize"),
        )
        patch.method(
            DirectoryCheckpointStore, "save",
            spans.timed("checkpoint.publish"),
        )
        patch.method(ShardCoordinator, "_recv", spans.timed("shard.recv"))
        patch.method(ShardCoordinator, "_spawn", spans.timed("shard.spawn"))
        patch.method(
            LinearRoadWorkload, "arrivals",
            spans.timed("linearroad.arrivals", len),
        )
        patch.function(build_linear_road, spans.timed("linearroad.build"))
        # Shard workers are forked from this process: they run untraced,
        # so the coordinator's receive waits measure real worker compute.
        os.register_at_fork(after_in_child=self.patches.undo)

    def uninstall(self) -> None:
        self.patches.undo()

    def metrics(self, outcome: Any) -> dict[str, float]:
        """The per-layer values for one traced run, by metric name."""
        from repro.stafilos.scwf_director import SCWFDirector

        spans = self.spans
        values: dict[str, float] = {
            "simulation.iterations": spans.result_sum("simulation.run"),
            "simulation.idle_jumps": spans.calls("clock.jump_to"),
            "simulation.self_s": spans.self_s("simulation.run"),
        }
        for layer in ("stafilos", "threaded"):
            values[f"{layer}.run_iteration.n"] = spans.calls(
                f"{layer}.run_iteration"
            )
            values[f"{layer}.run_iteration.self_s"] = spans.self_s(
                f"{layer}.run_iteration"
            )
            for attr in ("next_window_deadline", "fire_window_timeouts"):
                values[f"{layer}.{attr}.n"] = spans.calls(f"{layer}.{attr}")
                values[f"{layer}.{attr}.s"] = spans.total_s(f"{layer}.{attr}")
        for name in ("stafilos.get_next_actor", "windows.next_deadline",
                     "windows.force_timeout", "windows.put",
                     "sqldb.execute"):
            values[f"{name}.n"] = spans.calls(name)
            values[f"{name}.s"] = spans.total_s(name)
        timeouts = spans.calls("windows.force_timeout")
        values["windows.force_timeout.yield"] = (
            spans.result_sum("windows.force_timeout") / timeouts
            if timeouts
            else 0.0
        )
        groups = [len(op.group_keys) for op in self.window_operators]
        values["windows.groups_end"] = sum(groups)
        values["windows.groups_max"] = max(groups, default=0)
        values["actors.fire.n"] = spans.calls("actors.fire")
        values["actors.fire.self_s"] = spans.self_s("actors.fire")
        values["checkpoint.capture.n"] = spans.calls("checkpoint.capture")
        values["checkpoint.capture.s"] = spans.total_s("checkpoint.capture")
        values["checkpoint.serialize.s"] = spans.total_s(
            "checkpoint.serialize"
        )
        values["checkpoint.publish.s"] = spans.total_s("checkpoint.publish")
        director = outcome.director
        counters = (
            director.statistics.engine_counters
            if director is not None
            else {}
        )
        values["checkpoint.bytes_last"] = counters.get(
            "checkpoint_bytes_last", 0
        )
        values["checkpoint.bytes_total"] = counters.get(
            "checkpoint_bytes_total", 0
        )
        sharded = outcome.sharded
        transport = sharded.transport if sharded is not None else {}
        values["shard.encode.s"] = transport.get("shard_encode_us", 0) / 1e6
        values["shard.decode.s"] = transport.get("shard_decode_us", 0) / 1e6
        values["shard.bytes_sent"] = transport.get("shard_bytes_sent", 0)
        values["shard.chunks_sent"] = transport.get("shard_chunks_sent", 0)
        values["shard.recv_wait.s"] = spans.total_s("shard.recv")
        values["shard.spawn.s"] = spans.total_s("shard.spawn")
        if isinstance(director, SCWFDirector):
            values["stafilos.backlog_end"] = director.backlog()
        elif sharded is not None:
            values["stafilos.backlog_end"] = sum(
                shard["backlog_at_end"] for shard in sharded.per_shard.values()
            )
        else:
            values["stafilos.backlog_end"] = 0
        values["linearroad.arrivals.s"] = spans.total_s("linearroad.arrivals")
        values["linearroad.build.s"] = spans.total_s("linearroad.build")
        values["linearroad.reports"] = spans.result_sum("linearroad.arrivals")
        return values


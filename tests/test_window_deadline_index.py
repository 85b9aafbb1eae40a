"""The time-window deadline index of ``WindowOperator``.

A differential oracle drives the heap-indexed operator and a reference
operator whose timeout entry points are the historical full scans over
every group, through the same random operation sequences; the two must
agree on every produced window, the expired queue and every deadline.
Streaming tests check that the heap stays bounded, is built only once
deadlines are asked for, rebuilds exactly on restore, and never reaches
the snapshot bytes.
"""

from __future__ import annotations

import pickle
from typing import Optional

from hypothesis import given, settings, strategies as st

from repro.core.events import CWEvent
from repro.core.receivers import WindowedReceiver
from repro.core.waves import WaveTag
from repro.core.windows import (
    _TimeGroupState,
    Window,
    WindowOperator,
    WindowSpec,
)

_serial = iter(range(1, 10_000_000))


def make_event(key, ts: int) -> CWEvent:
    serial = next(_serial)
    return CWEvent({"k": key, "v": serial}, ts, WaveTag.root(serial))


class ScanWindowOperator(WindowOperator):
    """Reference: the O(groups) timeout scans the deadline heap replaced."""

    def next_deadline(self) -> Optional[int]:
        deadlines = [
            state.window_start + self.spec.size
            for state in self._groups.values()
            if state.window_start is not None and state.queue
        ]
        return min(deadlines, default=None)

    def force_timeout(self, now: Optional[int] = None) -> list[Window]:
        produced: list[Window] = []
        for key, state in self._groups.items():
            if not state.queue:
                continue
            while state.queue and (
                now is None or state.window_start + self.spec.size <= now
            ):
                windows = self._close_time_window(state, key, forced=True)
                produced.extend(windows)
                if not windows and now is None:
                    break
        self.total_windows += len(produced)
        return produced

    def next_frontier_boundary(self, up_to_us: int) -> Optional[int]:
        boundary = None
        for state in self._groups.values():
            if not state.queue:
                continue
            end = state.window_start + self.spec.size
            if end <= up_to_us and (boundary is None or end < boundary):
                boundary = end
        return boundary

    def close_on_frontier(self, up_to_us: int) -> list[Window]:
        produced: list[Window] = []
        for key, state in self._groups.items():
            while state.queue and state.window_start + self.spec.size <= up_to_us:
                produced.extend(
                    self._close_time_window(state, key, forced=False)
                )
        self.total_windows += len(produced)
        return produced


def shape(windows) -> list[tuple]:
    """Everything observable about produced windows, in order."""
    return [
        (
            w.group_key,
            w.start,
            w.end,
            w.forced,
            tuple((e.timestamp, e.value["v"]) for e in w.events),
        )
        for w in windows
    ]


def expired_shape(operator: WindowOperator) -> list[tuple]:
    return [(e.timestamp, e.value["v"]) for e in operator.expired]


def live_entries(operator: WindowOperator) -> list[tuple]:
    return sorted(e for e in operator._heap if operator._is_live(e))


def restored(operator: WindowOperator) -> WindowOperator:
    """A fresh operator of the same class, restored from a pickled dump."""
    fresh = type(operator)(operator.spec)
    fresh.state_restore(pickle.loads(pickle.dumps(operator.state_dump())))
    return fresh


def check_index(operator: WindowOperator) -> None:
    """One live entry per non-empty group, and a bounded heap."""
    expected = sorted(
        (state.window_start + operator.spec.size, state.ordinal, key)
        for key, state in operator._groups.items()
        if state.queue
    )
    assert live_entries(operator) == expected
    assert operator._live == len(expected)
    assert len(operator._heap) <= 2 * operator._live + 64


specs = st.builds(
    lambda size, step_kind, grouped, delete_used: WindowSpec.time(
        size,
        {"tumbling": size, "sliding": max(1, size // 3), "hopping": size * 2}[
            step_kind
        ],
        group_by="k" if grouped else None,
        delete_used_events=delete_used,
    ),
    st.integers(min_value=5, max_value=40),
    st.sampled_from(["tumbling", "sliding", "hopping"]),
    st.booleans(),
    st.booleans(),
)

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=-30, max_value=25),
        ),
        st.tuples(
            st.just("batch"),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=4),
                    st.integers(min_value=-10, max_value=15),
                ),
                min_size=1,
                max_size=6,
            ),
        ),
        st.tuples(st.just("timeout"), st.integers(min_value=-20, max_value=80)),
        st.tuples(st.just("flush")),
        st.tuples(st.just("frontier"), st.integers(min_value=-20, max_value=80)),
        st.tuples(
            st.just("boundary"), st.integers(min_value=-20, max_value=80)
        ),
        st.tuples(st.just("restore")),
        st.tuples(st.just("evict"), st.integers(min_value=-40, max_value=10)),
        st.tuples(st.just("clear")),
        st.tuples(st.just("drain")),
    ),
    max_size=60,
)


class TestDifferentialOracle:
    """The heap-indexed operator behaves exactly like the full scans."""

    @given(specs, operations, st.booleans())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_agrees_with_full_scan(self, spec, ops, in_order):
        receiver = WindowedReceiver(spec)
        reference = ScanWindowOperator(spec)
        clock = 100
        produced: list[Window] = []
        expected: list[Window] = []

        def stamp(delta: int) -> int:
            # In-order streams only move forward; otherwise an event may
            # land behind the newest one (the non-monotone group path).
            nonlocal clock
            if in_order:
                clock += abs(delta)
                return clock
            clock = max(clock, clock + delta)
            return max(0, clock + delta)

        for op in ops:
            heap = receiver.operator
            kind = op[0]
            if kind == "put":
                event = make_event(op[1], stamp(op[2]))
                produced += heap.put(event)
                expected += reference.put(event)
            elif kind == "batch":
                events = [make_event(key, stamp(d)) for key, d in op[1]]
                produced += heap.put_batch(events)
                expected += reference.put_batch(events)
            elif kind == "timeout":
                produced += heap.force_timeout(clock + op[1])
                expected += reference.force_timeout(clock + op[1])
            elif kind == "flush":
                produced += heap.force_timeout(None)
                expected += reference.force_timeout(None)
            elif kind == "frontier":
                produced += heap.close_on_frontier(clock + op[1])
                expected += reference.close_on_frontier(clock + op[1])
            elif kind == "boundary":
                assert heap.next_frontier_boundary(
                    clock + op[1]
                ) == reference.next_frontier_boundary(clock + op[1])
            elif kind == "restore":
                receiver.operator = restored(heap)
                reference = restored(reference)
            elif kind == "evict":
                assert heap.evict_idle_groups(
                    clock + op[1]
                ) == reference.evict_idle_groups(clock + op[1])
            elif kind == "clear":
                receiver.clear()
                reference = ScanWindowOperator(spec)
            else:
                assert [
                    (e.timestamp, e.value["v"]) for e in heap.drain_expired()
                ] == [
                    (e.timestamp, e.value["v"])
                    for e in reference.drain_expired()
                ]
            heap = receiver.operator
            assert heap.next_deadline() == reference.next_deadline()
            assert shape(produced) == shape(expected)
            assert expired_shape(heap) == expired_shape(reference)
            assert heap.group_keys == reference.group_keys
            assert heap.total_windows == reference.total_windows
            check_index(heap)


class TestBoundedHeap:
    def test_heap_stays_bounded_and_restores_exactly(self):
        spec = WindowSpec.time(60, 60, group_by="k", delete_used_events=True)
        operator = WindowOperator(spec)
        bound_ok = True
        for i in range(50_000):
            ts = i * 7
            operator.put(make_event(i, ts))
            if i % 3 == 0:  # every third key is touched twice
                operator.put(make_event(i, ts + 70))
            if i % 500 == 0:
                operator.force_timeout(ts - 200)
            bound_ok &= len(operator._heap) <= 2 * operator._live + 64
        assert bound_ok
        assert len(operator.group_keys) == 50_000
        check_index(operator)

        # The rebuilt index equals the one of the operator that never
        # stopped, and the snapshot bytes do not depend on the index.
        dump = pickle.dumps(operator.state_dump())
        assert set(operator.state_dump()) == {
            "groups", "last_seen", "expired", "total_events", "total_windows"
        }
        copy = restored(operator)
        assert copy._heap is None  # rebuilt on first use
        assert copy.next_deadline() == operator.next_deadline()
        assert live_entries(copy) == live_entries(operator)
        assert copy._live == operator._live
        assert len(copy._heap) == copy._live
        assert pickle.dumps(copy.state_dump()) == dump

        state = next(iter(operator._groups.values()))
        assert isinstance(state, _TimeGroupState)
        assert len(state.__reduce__()[1]) == 4  # queue, start, last, monotone

        # Both keep closing the same windows afterwards.
        now = 50_000 * 7 + 500
        assert shape(copy.force_timeout(now)) == shape(
            operator.force_timeout(now)
        )
        assert operator._live == copy._live == 0

    def test_stale_entries_are_compacted(self):
        # One busy group moves its deadline on every pane it crosses and
        # is never timed out: only compaction drops its stale entries.
        operator = WindowOperator(WindowSpec.time(10, 5))
        operator.put(make_event(None, 0))
        assert operator._heap is None  # nobody asked for a deadline yet
        assert operator.next_deadline() == 10
        for ts in range(3, 20_000, 3):
            operator.put(make_event(None, ts))
            assert len(operator._heap) <= 2 * operator._live + 64
        check_index(operator)
        assert operator.next_deadline() == operator.next_frontier_boundary(
            10**9
        )

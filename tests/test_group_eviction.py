"""Idle group-state eviction in the window operator."""

import pytest

from repro.core.events import CWEvent
from repro.core.waves import WaveTag
from repro.core.windows import WindowOperator, WindowSpec


def event(value, ts, key):
    event.counter = getattr(event, "counter", 0) + 1
    return CWEvent({"k": key, "v": value}, ts, WaveTag.root(event.counter))


def make_op(delete_used=True):
    return WindowOperator(
        WindowSpec.tokens(
            2, 2, group_by="k", delete_used_events=delete_used
        )
    )


class TestEviction:
    def test_drained_idle_groups_evicted(self):
        op = make_op()
        for key in range(10):
            op.put(event(1, ts=key, key=key))
            op.put(event(2, ts=key, key=key))  # window fires, queue empty
        assert len(op.group_keys) == 10
        evicted = op.evict_idle_groups(before_ts=100)
        assert evicted == 10
        assert op.group_keys == []

    def test_groups_with_buffered_events_survive(self):
        op = make_op()
        op.put(event(1, ts=0, key="partial"))  # only one of two
        op.put(event(1, ts=0, key="done"))
        op.put(event(2, ts=0, key="done"))
        assert op.evict_idle_groups(before_ts=100) == 1
        assert op.group_keys == ["partial"]

    def test_recently_active_groups_survive(self):
        op = make_op()
        op.put(event(1, ts=10, key="old"))
        op.put(event(2, ts=10, key="old"))
        op.put(event(1, ts=500, key="fresh"))
        op.put(event(2, ts=500, key="fresh"))
        assert op.evict_idle_groups(before_ts=100) == 1
        assert op.group_keys == ["fresh"]

    def test_evicted_group_reforms_cleanly(self):
        op = make_op()
        op.put(event(1, ts=0, key="a"))
        op.put(event(2, ts=0, key="a"))
        op.evict_idle_groups(before_ts=100)
        produced = []
        produced += op.put(event(3, ts=200, key="a"))
        produced += op.put(event(4, ts=200, key="a"))
        assert len(produced) == 1
        assert [e.value["v"] for e in produced[0]] == [3, 4]

    def test_wave_groups_evictable(self):
        op = WindowOperator(WindowSpec.waves(1, group_by="k"))
        e = event("x", ts=0, key="a")
        e.last_in_wave = True
        op.put(e)  # wave closes immediately: state empty afterwards
        assert op.evict_idle_groups(before_ts=100) == 1


class TestTimeGroupEvictionAlignment:
    """A re-created time group opens the pane the evicted one would have."""

    @staticmethod
    def panes(evict):
        op = WindowOperator(
            WindowSpec.time(60, 60, group_by="k", delete_used_events=True)
        )
        produced = op.put(event(1, ts=10, key="a"))
        produced += op.force_timeout(100)
        if evict:
            assert op.evict_idle_groups(before_ts=100) == 1
            assert op.group_keys == []
        produced += op.put(event(2, ts=100, key="a"))
        produced += op.force_timeout(200)
        return [(w.start, w.end) for w in produced]

    def test_eviction_keeps_pane_boundaries(self):
        assert self.panes(evict=False) == [(10, 70), (70, 130)]
        assert self.panes(evict=True) == [(10, 70), (70, 130)]

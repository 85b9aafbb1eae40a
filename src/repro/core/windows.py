"""Window semantics on the active queues of continuous workflows.

The CWf model attaches *windows* to the event queues feeding each activity
input.  A window turns an unbounded stream into "a finite, yet ever-changing
set of events".  Following the paper, a window operator is configured by five
parameters:

``size``
    The window extent, in one of three measures: a number of **tokens**, a
    span of **time** (microseconds of event time) or a number of **waves**.
``step``
    How far the window advances after production (same measure as ``size``).
``window_formation_timeout``
    An optional engine-time bound after which a partial window is forced out
    (used to close time-based windows when the stream goes quiet).
``group_by``
    An optional clause partitioning the queue into per-key sub-queues; each
    sub-queue forms windows independently (e.g. "last 4 reports *per car*").
``delete_used_events``
    When true, events that participated in a produced window are *consumed*
    and can never appear in a later window (the "continuous" consumption mode
    of Adaikkalavan & Chakravarthy); when false the window slides by ``step``
    and events that fall behind the window are moved to the *expired items
    queue* where another activity may optionally process them.

Window operators are pure data-structure logic: they never look at a clock.
Timeout decisions are made by whichever director owns the receiver, which
calls :meth:`WindowOperator.force_timeout`.

A time-measured operator keeps its pane deadlines in a lazy min-heap (see
:class:`WindowOperator`): the earliest is an O(1) peek, and a timeout
visits only the groups it closes.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import OrderedDict, deque
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Callable, Iterable, Optional, Sequence

from ..observability import tracer as _obs
from .events import CWEvent
from .exceptions import WindowError

GroupKey = Any
_WINDOW_SEQ = itertools.count(1)


class Measure(Enum):
    """The unit a window ``size``/``step`` is expressed in."""

    TOKENS = "tokens"
    TIME = "time"
    WAVES = "waves"


class ConsumptionMode(Enum):
    """Hybrid window/consumption modes (Adaikkalavan & Chakravarthy).

    ``UNRESTRICTED``
        events may participate in any number of windows (slide, no delete);
    ``RECENT``
        like unrestricted but only the most recent window is retained when
        production falls behind (bursts collapse to the newest window);
    ``CONTINUOUS``
        every event participates in exactly one window (delete-used).
    """

    UNRESTRICTED = "unrestricted"
    RECENT = "recent"
    CONTINUOUS = "continuous"


def _normalize_group_by(
    group_by: None | str | Sequence[str] | Callable[[CWEvent], GroupKey],
) -> Optional[Callable[[CWEvent], GroupKey]]:
    """Turn the user-facing group-by clause into a key function."""
    if group_by is None:
        return None
    if callable(group_by):
        return group_by
    if isinstance(group_by, str):
        name = group_by
        return lambda event: event.field(name)
    names = tuple(group_by)
    return lambda event: tuple(event.field(name) for name in names)


@dataclass(frozen=True)
class WindowSpec:
    """Declarative description of the window semantics on one input queue."""

    size: int
    step: int
    measure: Measure = Measure.TOKENS
    timeout: Optional[int] = None
    group_by: None | str | Sequence[str] | Callable[[CWEvent], GroupKey] = None
    delete_used_events: bool = False
    mode: Optional[ConsumptionMode] = None

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise WindowError(f"window size must be positive, got {self.size}")
        if self.step <= 0:
            raise WindowError(f"window step must be positive, got {self.step}")
        if self.timeout is not None and self.timeout <= 0:
            raise WindowError("window_formation_timeout must be positive")
        if self.mode is ConsumptionMode.CONTINUOUS and not self.delete_used_events:
            object.__setattr__(self, "delete_used_events", True)
        if self.mode is None:
            mode = (
                ConsumptionMode.CONTINUOUS
                if self.delete_used_events
                else ConsumptionMode.UNRESTRICTED
            )
            object.__setattr__(self, "mode", mode)
        if (
            self.delete_used_events
            and self.measure is not Measure.TIME
            and self.step != self.size
        ):
            # Continuous consumption always removes the whole window, so a
            # different step would be silently ignored — reject the
            # inconsistent combination instead of surprising the user.
            raise WindowError(
                "delete_used_events consumes the full window: step must "
                f"equal size (got size={self.size}, step={self.step}); "
                "omit step or use sliding mode (delete_used_events=False)"
            )

    @classmethod
    def tokens(
        cls,
        size: int,
        step: Optional[int] = None,
        group_by=None,
        delete_used_events: bool = False,
        timeout: Optional[int] = None,
    ) -> "WindowSpec":
        """A tuple-based window of *size* tokens advancing by *step* tokens.

        *step* defaults to 1 for sliding windows and to *size* (tumbling)
        when ``delete_used_events`` is set, keeping the default spec valid
        under the step/size consistency check.
        """
        if step is None:
            step = size if delete_used_events else 1
        return cls(size, step, Measure.TOKENS, timeout, group_by, delete_used_events)

    @classmethod
    def time(
        cls,
        size_us: int,
        step_us: Optional[int] = None,
        group_by=None,
        delete_used_events: bool = False,
        timeout: Optional[int] = None,
    ) -> "WindowSpec":
        """A time-based window of *size_us* microseconds of event time."""
        return cls(
            size_us,
            step_us if step_us is not None else size_us,
            Measure.TIME,
            timeout,
            group_by,
            delete_used_events,
        )

    @classmethod
    def waves(
        cls,
        size: int = 1,
        step: Optional[int] = None,
        group_by=None,
        delete_used_events: bool = True,
        timeout: Optional[int] = None,
    ) -> "WindowSpec":
        """A wave-based window of *size* complete waves.

        *step* defaults to *size* (tumbling) under the default continuous
        consumption, and to 1 (sliding) otherwise — ``waves(2)`` stays a
        valid spec under the step/size consistency check.
        """
        if step is None:
            step = size if delete_used_events else 1
        return cls(size, step, Measure.WAVES, timeout, group_by, delete_used_events)

    def key_function(self) -> Optional[Callable[[CWEvent], GroupKey]]:
        return _normalize_group_by(self.group_by)


class Window:
    """A produced window: an immutable bundle of events for one group key."""

    __slots__ = ("events", "group_key", "start", "end", "forced", "seq")

    def __init__(
        self,
        events: Sequence[CWEvent],
        group_key: GroupKey = None,
        start: Optional[int] = None,
        end: Optional[int] = None,
        forced: bool = False,
    ):
        self.events = tuple(events)
        self.group_key = group_key
        self.start = start
        self.end = end
        self.forced = forced
        self.seq = next(_WINDOW_SEQ)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __getitem__(self, index):
        return self.events[index]

    @property
    def values(self) -> list:
        """The raw payloads of the window's events, in order."""
        return [event.value for event in self.events]

    @property
    def timestamp(self) -> int:
        """The timestamp the window inherits: its newest event's timestamp."""
        if not self.events:
            raise WindowError("an empty window has no timestamp")
        return max(event.timestamp for event in self.events)

    @property
    def oldest_timestamp(self) -> int:
        if not self.events:
            raise WindowError("an empty window has no timestamp")
        return min(event.timestamp for event in self.events)

    def __repr__(self) -> str:
        key = f", key={self.group_key!r}" if self.group_key is not None else ""
        return f"Window(n={len(self.events)}{key})"

    def __reduce__(self):
        """Fast pickle path for checkpoint snapshots.

        Expired-window queues can hold thousands of windows; the slot
        protocol pays a per-object ``copyreg._slotnames`` lookup and the
        default rebuild would draw a fresh ``_WINDOW_SEQ`` serial.  The
        revive helper bypasses ``__init__`` so the original ``seq``
        survives — window ordering stays bit-identical across resume.
        """
        return (
            _revive_window,
            (
                self.events,
                self.group_key,
                self.start,
                self.end,
                self.forced,
                self.seq,
            ),
        )


def _revive_window(events, group_key, start, end, forced, seq) -> "Window":
    """Rebuild a pickled window verbatim (no ``_WINDOW_SEQ`` draw)."""
    window = Window.__new__(Window)
    window.events = events
    window.group_key = group_key
    window.start = start
    window.end = end
    window.forced = forced
    window.seq = seq
    return window


class _TokenGroupState:
    """Per-group formation state for tuple-based windows."""

    __slots__ = ("queue", "skip_debt")

    def __init__(self) -> None:
        self.queue: deque[CWEvent] = deque()
        #: Events still owed to a past advance (only when step > size).
        self.skip_debt = 0

    def __reduce__(self):
        """Fast pickle path (snapshots carry one state per group key).

        The queue is flattened to a tuple: ``deque`` pickling performs a
        per-object ``copyreg._slotnames`` lookup (Linear Road creates one
        group per car, so snapshots carry tens of thousands of deques)
        while tuples serialize natively.  The queue is owned exclusively
        by this state, so rebuilding a fresh deque cannot split any
        shared reference.
        """
        return (_revive_token_group, (tuple(self.queue), self.skip_debt))


class _TimeGroupState:
    """Per-group formation state for time-based windows."""

    __slots__ = (
        "queue", "window_start", "last_ts", "monotone", "ordinal", "armed"
    )

    def __init__(self, ordinal: int) -> None:
        self.queue: deque[CWEvent] = deque()
        self.window_start: Optional[int] = None
        #: Timestamp of the most recently appended event and whether the
        #: queue is still in non-decreasing timestamp order — the common
        #: case, which unlocks O(consumed) popleft-based eviction.
        self.last_ts: Optional[int] = None
        self.monotone = True
        #: Operator index state, set by ``state_restore`` after unpickling.
        self.ordinal = ordinal
        self.armed: Optional[int] = None

    def __reduce__(self):
        """Fast pickle path (see :meth:`_TokenGroupState.__reduce__`)."""
        return (
            _revive_time_group,
            (
                tuple(self.queue),
                self.window_start,
                self.last_ts,
                self.monotone,
            ),
        )


class _WaveGroupState:
    """Per-group formation state for wave-based windows."""

    __slots__ = ("events_by_root", "closed_roots", "open_order")

    def __init__(self) -> None:
        self.events_by_root: "OrderedDict[int, list[CWEvent]]" = OrderedDict()
        self.closed_roots: list[int] = []
        self.open_order: list[int] = []

    def __reduce__(self):
        """Fast pickle path (snapshots carry one state per group key)."""
        return (
            _revive_wave_group,
            (self.events_by_root, self.closed_roots, self.open_order),
        )


def _revive_token_group(queue: tuple, skip_debt: int) -> "_TokenGroupState":
    state = _TokenGroupState.__new__(_TokenGroupState)
    state.queue = deque(queue)
    state.skip_debt = skip_debt
    return state


def _revive_time_group(
    queue: tuple, window_start, last_ts, monotone
) -> "_TimeGroupState":
    state = _TimeGroupState.__new__(_TimeGroupState)
    state.queue = deque(queue)
    state.window_start = window_start
    state.last_ts = last_ts
    state.monotone = monotone
    return state


def _revive_wave_group(
    events_by_root, closed_roots, open_order
) -> "_WaveGroupState":
    state = _WaveGroupState.__new__(_WaveGroupState)
    state.events_by_root = events_by_root
    state.closed_roots = closed_roots
    state.open_order = open_order
    return state


class WindowOperator:
    """Runs the window-formation logic for one windowed input queue.

    The operator owns one formation state per group-by key, an *expired
    items* queue, and exposes three entry points:

    * :meth:`put` — insert an event; returns any windows it completed;
    * :meth:`force_timeout` — close the pending window of a group on the
      director's timeout signal; returns the forced window, if any;
    * :meth:`next_deadline` — the earliest event-time boundary at which a
      time-based group could produce, so directors can register timeouts.

    Time-measured operators index their deadlines in a lazy min-heap of
    ``(window_start + size, creation ordinal, key)``, one live entry per
    non-empty group: a group pushes an entry when its deadline moves, an
    entry counts while it matches the group's ``armed`` deadline, and the
    heap is compacted past ``2 * live + 64`` entries.  So
    :meth:`next_deadline` and :meth:`next_frontier_boundary` are an
    amortized O(1) peek, and :meth:`force_timeout` and
    :meth:`close_on_frontier` cost O(due · log G) for G groups.  The heap
    is derived state, never dumped and built on first use, so an operator
    nobody asks for deadlines (no timeout, no frontier) never pays for it.
    """

    def __init__(self, spec: WindowSpec):
        self.spec = spec
        self._key_fn = spec.key_function()
        self._groups: "OrderedDict[GroupKey, Any]" = OrderedDict()
        self._last_seen: dict[GroupKey, int] = {}
        self.expired: deque[CWEvent] = deque()
        self.total_events = 0
        self.total_windows = 0
        #: Deadline index (``None`` until first used), live entry count.
        self._heap: Optional[list[tuple[int, int, GroupKey]]] = None
        self._live = 0
        self._next_ordinal = 0
        #: Next pane start of each evicted time group, by key.
        self._evicted_starts: dict[GroupKey, int] = {}

    # ------------------------------------------------------------------
    # Group management
    # ------------------------------------------------------------------
    def _group_key(self, event: CWEvent) -> GroupKey:
        if self._key_fn is None:
            return None
        return self._key_fn(event)

    def _state(self, key: GroupKey):
        state = self._groups.get(key)
        if state is None:
            if self.spec.measure is Measure.TOKENS:
                state = _TokenGroupState()
            elif self.spec.measure is Measure.TIME:
                state = _TimeGroupState(self._next_ordinal)
                self._next_ordinal += 1
                if self._evicted_starts:
                    state.window_start = self._evicted_starts.pop(key, None)
            else:
                state = _WaveGroupState()
            self._groups[key] = state
        return state

    @property
    def group_keys(self) -> list[GroupKey]:
        return list(self._groups.keys())

    def pending_count(self) -> int:
        """Number of events buffered and not yet part of a produced window."""
        total = 0
        for state in self._groups.values():
            if isinstance(state, _WaveGroupState):
                total += sum(len(evts) for evts in state.events_by_root.values())
            else:
                total += len(state.queue)
        return total

    # ------------------------------------------------------------------
    # Event admission
    # ------------------------------------------------------------------
    def put(self, event: CWEvent) -> list[Window]:
        """Insert *event* and return every window its arrival completed."""
        self.total_events += 1
        key = self._group_key(event)
        self._last_seen[key] = event.timestamp
        state = self._state(key)
        if self.spec.measure is Measure.TOKENS:
            produced = self._put_tokens(state, key, event)
        elif self.spec.measure is Measure.TIME:
            produced = self._put_time(state, key, event)
        else:
            produced = self._put_waves(state, key, event)
        self.total_windows += len(produced)
        if produced:
            if _obs.ENABLED:
                for window in produced:
                    _obs._TRACER.instant(
                        "window.formed",
                        window.timestamp,
                        size=len(window),
                        group=repr(window.group_key),
                        measure=self.spec.measure.value,
                    )
        return produced

    def put_batch(self, events: list[CWEvent]) -> list[Window]:
        """Insert a train of events; returns all windows in production order.

        Produces exactly what ``[w for e in events for w in self.put(e)]``
        would, but for ungrouped windows the per-event group lookup,
        ``_last_seen`` stamping, measure dispatch and counter updates are
        hoisted out of the loop and paid once per train.
        """
        if not events:
            return []
        if self._key_fn is not None:
            produced: list[Window] = []
            for event in events:
                produced.extend(self.put(event))
            return produced
        # Ungrouped fast path: one shared group state for the whole train.
        state = self._state(None)
        if self.spec.measure is Measure.TOKENS:
            put_one = self._put_tokens
        elif self.spec.measure is Measure.TIME:
            put_one = self._put_time
        else:
            put_one = self._put_waves
        produced = []
        for event in events:
            made = put_one(state, None, event)
            if made:
                produced.extend(made)
        self.total_events += len(events)
        self._last_seen[None] = events[-1].timestamp
        self.total_windows += len(produced)
        if produced and _obs.ENABLED:
            for window in produced:
                _obs._TRACER.instant(
                    "window.formed",
                    window.timestamp,
                    size=len(window),
                    group=repr(window.group_key),
                    measure=self.spec.measure.value,
                )
        return produced

    # -- tuple-based ----------------------------------------------------
    def _put_tokens(
        self, state: _TokenGroupState, key: GroupKey, event: CWEvent
    ) -> list[Window]:
        if state.skip_debt > 0:
            # A previous advance (step > size) owes skipped positions.
            state.skip_debt -= 1
            self.expired.append(event)
            return []
        state.queue.append(event)
        produced: list[Window] = []
        size, step = self.spec.size, self.spec.step
        popleft = state.queue.popleft
        while len(state.queue) >= size:
            if self.spec.delete_used_events:
                # Continuous consumption is always tumbling (the spec
                # enforces step == size for tokens): drain the window in
                # one popleft pass, O(size), instead of materializing an
                # islice copy and then popping the same events again.
                window_events = [popleft() for _ in range(size)]
            else:
                window_events = list(itertools.islice(state.queue, 0, size))
                dropped = min(step, len(state.queue))
                for _ in range(dropped):
                    self.expired.append(popleft())
                state.skip_debt += step - dropped
            produced.append(Window(window_events, key))
        if self.spec.mode is ConsumptionMode.RECENT and len(produced) > 1:
            produced = [produced[-1]]
        return produced

    # -- time-based -----------------------------------------------------
    def _put_time(
        self, state: _TimeGroupState, key: GroupKey, event: CWEvent
    ) -> list[Window]:
        if state.window_start is None:
            state.window_start = event.timestamp
        produced: list[Window] = []
        size, step = self.spec.size, self.spec.step
        # Close every window whose right boundary the new event has crossed.
        while event.timestamp >= state.window_start + size:
            produced.extend(self._close_time_window(state, key, forced=False))
        if state.last_ts is not None and event.timestamp < state.last_ts:
            state.monotone = False
        state.last_ts = event.timestamp
        state.queue.append(event)
        if self._heap is not None and state.armed != state.window_start + size:
            self._arm(state, key)
        if self.spec.mode is ConsumptionMode.RECENT and len(produced) > 1:
            produced = [produced[-1]]
        return produced

    def _close_time_window(
        self, state: _TimeGroupState, key: GroupKey, forced: bool
    ) -> list[Window]:
        size, step = self.spec.size, self.spec.step
        start = state.window_start
        assert start is not None
        end = start + size
        queue = state.queue
        produced = []
        if self.spec.delete_used_events and state.monotone:
            # Fast path (the common in-order stream): consumed events are
            # a queue prefix, so eviction is popleft-based and O(consumed)
            # — no id()-set, no full-deque rebuild.
            window_events: list[CWEvent] = []
            while queue and queue[0].timestamp < end:
                head = queue.popleft()
                if head.timestamp >= start:
                    window_events.append(head)
                else:  # pre-start straggler: expires, same as the sweep
                    self.expired.append(head)
            if window_events:
                produced.append(Window(window_events, key, start, end, forced))
        else:
            if state.monotone:
                # In-order sliding window: the in-range events are a
                # prefix, so stop scanning at the right boundary.
                window_events = []
                for e in queue:
                    if e.timestamp >= end:
                        break
                    if e.timestamp >= start:
                        window_events.append(e)
            else:
                window_events = [
                    e for e in queue if start <= e.timestamp < end
                ]
            if window_events:
                produced.append(Window(window_events, key, start, end, forced))
            if self.spec.delete_used_events:
                # Out-of-order continuous consumption: one-pass split into
                # kept/consumed (the consumed set is exactly the in-range
                # events, so no identity bookkeeping is needed).
                queue = state.queue = deque(
                    e for e in queue if not start <= e.timestamp < end
                )
        state.window_start = start + step
        # Expire events that can no longer belong to any future window.
        while queue and queue[0].timestamp < state.window_start:
            self.expired.append(queue.popleft())
        return produced

    # -- wave-based -----------------------------------------------------
    def _put_waves(
        self, state: _WaveGroupState, key: GroupKey, event: CWEvent
    ) -> list[Window]:
        root = event.wave.serial
        if root not in state.events_by_root:
            state.events_by_root[root] = []
            state.open_order.append(root)
        state.events_by_root[root].append(event)
        if event.last_in_wave and root not in state.closed_roots:
            state.closed_roots.append(root)
        produced: list[Window] = []
        size, step = self.spec.size, self.spec.step
        while len(state.closed_roots) >= size:
            roots = state.closed_roots[:size]
            window_events: list[CWEvent] = []
            for r in roots:
                window_events.extend(state.events_by_root[r])
            window_events.sort()
            produced.append(Window(window_events, key))
            consumed = roots if self.spec.delete_used_events else roots[:step]
            for r in consumed:
                events = state.events_by_root.pop(r, [])
                if not self.spec.delete_used_events:
                    self.expired.extend(events)
                state.open_order.remove(r)
            state.closed_roots = [
                r for r in state.closed_roots if r not in set(consumed)
            ]
        return produced

    # ------------------------------------------------------------------
    # Timeouts
    # ------------------------------------------------------------------
    def _arm(self, state: _TimeGroupState, key: GroupKey) -> None:
        """Re-index *state* after its queue or pane may have moved."""
        deadline = state.window_start + self.spec.size if state.queue else None
        armed = state.armed
        if deadline == armed:
            return
        if armed is None:
            self._live += 1
        elif deadline is None:
            self._live -= 1
        state.armed = deadline
        if deadline is not None:
            heap = self._heap
            heapq.heappush(heap, (deadline, state.ordinal, key))
            if len(heap) > 2 * self._live + 64:
                self._heap = [e for e in heap if self._is_live(e)]
                heapq.heapify(self._heap)

    def _is_live(self, entry: tuple[int, int, GroupKey]) -> bool:
        deadline, ordinal, key = entry
        state = self._groups.get(key)
        return (
            state is not None
            and state.armed == deadline
            and state.ordinal == ordinal
        )

    def _index(self) -> list[tuple[int, int, GroupKey]]:
        """Build the deadline heap on its first use."""
        self._heap, self._live = [], 0
        if self.spec.measure is Measure.TIME:
            for key, state in self._groups.items():
                state.armed = None
                self._arm(state, key)
        return self._heap

    def _peek(self) -> Optional[int]:
        """The earliest live deadline, discarding stale heap tops."""
        heap = self._heap if self._heap is not None else self._index()
        while heap and not self._is_live(heap[0]):
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def _close_due(self, bound: Optional[int], forced: bool) -> list[Window]:
        """Close the panes due at *bound* (``None``: the shutdown flush).

        Due groups close in creation order, the order a scan of
        ``_groups`` visits them, so windows, the expired queue and window
        serials come out exactly as a full scan would make them.
        """
        heap = self._heap if self._heap is not None else self._index()
        limit = math.inf if bound is None else bound
        due = []
        while heap and heap[0][0] <= limit:
            entry = heapq.heappop(heap)
            if self._is_live(entry):
                due.append(entry[1:])  # (ordinal, key): ordinals are unique
        self._live -= len(due)
        due.sort()
        size = self.spec.size
        produced: list[Window] = []
        for _, key in due:
            state = self._groups[key]
            state.armed = None
            while state.queue and (
                bound is None or state.window_start + size <= bound
            ):
                windows = self._close_time_window(state, key, forced)
                produced.extend(windows)
                if not windows and bound is None:
                    break
            self._arm(state, key)
        return produced

    def next_deadline(self) -> Optional[int]:
        """Earliest event-time right boundary of any pending time window."""
        return self._peek()

    def force_timeout(self, now: Optional[int] = None) -> list[Window]:
        """Force-close pending windows (director-driven timeout).

        For time-based windows, every group whose right boundary is at or
        before *now* (or every non-empty group when *now* is ``None``) closes
        and produces its partial window.  For token/wave windows the current
        partial content of every group is flushed — this is how a director
        drains windows at workflow shutdown.
        """
        produced: list[Window] = []
        if self.spec.measure is Measure.TIME:
            produced = self._close_due(now, forced=True)
        elif self.spec.measure is Measure.TOKENS:
            for key, state in self._groups.items():
                if state.queue:
                    flushed = list(state.queue)
                    produced.append(
                        Window(
                            flushed,
                            key,
                            start=min(e.timestamp for e in flushed),
                            end=max(e.timestamp for e in flushed),
                            forced=True,
                        )
                    )
                    if not self.spec.delete_used_events:
                        # Unrestricted/recent consumption: flushed events
                        # slide out through the expired-items queue, same
                        # as a normal advance — a forced flush must not
                        # silently consume them.
                        self.expired.extend(flushed)
                    state.queue.clear()
                # A forced flush ends the current formation cycle, so any
                # positions still owed to a past advance are forgiven.
                state.skip_debt = 0
        else:
            for key, state in self._groups.items():
                leftovers: list[CWEvent] = []
                for events in state.events_by_root.values():
                    leftovers.extend(events)
                if leftovers:
                    leftovers.sort()
                    produced.append(
                        Window(
                            leftovers,
                            key,
                            start=min(e.timestamp for e in leftovers),
                            end=max(e.timestamp for e in leftovers),
                            forced=True,
                        )
                    )
                    if not self.spec.delete_used_events:
                        self.expired.extend(leftovers)
                state.events_by_root.clear()
                state.closed_roots.clear()
                state.open_order.clear()
        self.total_windows += len(produced)
        if produced:
            if _obs.ENABLED:
                for window in produced:
                    _obs._TRACER.instant(
                        "window.forced",
                        window.timestamp if len(window) else (now or 0),
                        size=len(window),
                        group=repr(window.group_key),
                    )
        return produced

    def next_frontier_boundary(self, up_to_us: int) -> Optional[int]:
        """Earliest closable pane boundary at or before *up_to_us*.

        The minimum right boundary (``window_start + size``) over every
        non-empty time group, or ``None`` when no pane is complete yet.
        Directors use this to close frontier panes one event-time
        boundary at a time, so a closure that feeds a downstream timed
        window is fired and delivered before the downstream pane with a
        later boundary closes.
        """
        boundary = self._peek()
        if boundary is None or boundary > up_to_us:
            return None
        return boundary

    def close_on_frontier(self, up_to_us: int) -> list[Window]:
        """Close every time-based pane the frontier has passed.

        A frontier at ``up_to_us`` asserts no event with an earlier
        timestamp is still in flight, so panes whose right boundary lies
        at or before it are *complete* — they close through the same
        :meth:`_close_time_window` path an in-order boundary-crossing
        event would take (not ``forced``: the content is exact, unlike a
        formation-timeout guess).  Token- and wave-measured windows
        close by count/mark, never by the frontier; for those this is a
        no-op.
        """
        produced = self._close_due(up_to_us, forced=False)
        self.total_windows += len(produced)
        if produced and _obs.ENABLED:
            for window in produced:
                _obs._TRACER.instant(
                    "window.frontier_closed",
                    window.timestamp,
                    size=len(window),
                    group=repr(window.group_key),
                )
        return produced

    # ------------------------------------------------------------------
    # Checkpointable protocol
    # ------------------------------------------------------------------
    def state_dump(self) -> dict:
        """Snapshot formation state (Checkpointable protocol).

        The per-group state objects (``_TokenGroupState`` /
        ``_TimeGroupState`` / ``_WaveGroupState``) are plain slotted
        containers of events and boundaries, so they serialize directly;
        the ``group_by`` key *function* is structural (rebuilt from the
        spec) and is deliberately not part of the dump, and neither is
        the deadline index.  The returned dict references live containers
        — the checkpoint orchestrator pickles it synchronously, before the
        engine takes another step.
        """
        return {
            "groups": self._groups,
            "last_seen": self._last_seen,
            "expired": self.expired,
            "total_events": self.total_events,
            "total_windows": self.total_windows,
        }

    def state_restore(self, state: dict) -> None:
        """Re-apply dumped formation state (Checkpointable protocol).

        Group order is creation order; the deadline index is rebuilt on
        its next use.
        """
        self._groups = OrderedDict(state["groups"])
        self._last_seen = dict(state["last_seen"])
        self.expired = deque(state["expired"])
        self.total_events = int(state["total_events"])
        self.total_windows = int(state["total_windows"])
        self._heap = None
        self._next_ordinal = len(self._groups)
        if self.spec.measure is Measure.TIME:
            for ordinal, group in enumerate(self._groups.values()):
                group.ordinal = ordinal

    def drain_expired(self) -> list[CWEvent]:
        """Remove and return everything in the expired-items queue."""
        items = list(self.expired)
        self.expired.clear()
        if items:
            if _obs.ENABLED:
                _obs._TRACER.instant(
                    "window.expired",
                    max(event.timestamp for event in items),
                    count=len(items),
                )
        return items

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def evict_idle_groups(self, before_ts: int) -> int:
        """Drop *empty* group states last touched before *before_ts*.

        Group-by clauses over unbounded key domains (e.g. car ids) would
        otherwise grow forever: every key keeps a formation state even
        after its events have all been consumed.  Only groups with no
        buffered events are eligible — nothing observable changes, memory
        is reclaimed.  An evicted time group leaves its next pane start
        behind (in memory only, not in :meth:`state_dump`), so a group
        re-created by a later event opens that pane.  Returns the number
        of groups evicted.
        """
        doomed = []
        for key, state in self._groups.items():
            if self._last_seen.get(key, 0) >= before_ts:
                continue
            if isinstance(state, _WaveGroupState):
                busy = bool(state.events_by_root)
            else:
                busy = bool(state.queue)
            if not busy:
                doomed.append(key)
        for key in doomed:
            state = self._groups.pop(key)
            self._last_seen.pop(key, None)
            if isinstance(state, _TimeGroupState):
                self._evicted_starts[key] = state.window_start
        if doomed:
            if _obs.ENABLED:
                _obs._TRACER.instant(
                    "window.groups_evicted", before_ts, count=len(doomed)
                )
        return len(doomed)


def strip_window_timeouts(workflow: Any) -> int:
    """Remove every window-formation timeout from *workflow*'s ports.

    The formation timeout is the one window parameter that fires on
    **engine time** rather than event time: a director force-closes a
    partial window when its own clock passes the pane boundary plus the
    timeout.  How far an engine clock has advanced depends on what else
    shares that engine, so a timeout-forced flush is inherently
    placement-dependent — the same workload can close a sparse pane at
    slightly different points when run whole versus partitioned.

    Deterministic sharded execution therefore runs workflows in
    *event-time-pure* mode: every ``WindowSpec`` loses its ``timeout``
    before the director attaches, and every pane closes only when a
    later event crosses its boundary.  Call this on both the partitioned
    engines and the single-process oracle they are compared against.
    Must run before the director builds receivers (timeouts are
    registered at attach time).  Returns the number of ports stripped.
    """
    stripped = 0
    for actor in workflow.actors.values():
        for port in actor.input_ports.values():
            spec = port.window
            if spec is not None and spec.timeout is not None:
                port.window = replace(spec, timeout=None)
                stripped += 1
    return stripped

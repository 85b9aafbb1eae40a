"""Receivers: the queue objects sitting at the receiving end of a channel.

In Kepler/PtolemyII the *receiver* is supplied by the director, not by the
actor — the director thereby controls the communication model.  This module
defines the director-agnostic receivers:

* :class:`FIFOReceiver` — a plain buffered queue (used by SDF/DDF/PN/DE);
* :class:`WindowedReceiver` — the CONFLuEnCE receiver: every ``put`` stamps
  the token into a :class:`~repro.core.events.CWEvent`, routes it through a
  :class:`~repro.core.windows.WindowOperator`, and any produced windows are
  stored on an output queue that the owning actor's ``get`` drains.

The STAFiLOS ``TMWindowedReceiver`` (in :mod:`repro.stafilos.tm_receiver`)
extends :class:`WindowedReceiver` so produced windows are handed to the
scheduler instead of buffered locally.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from typing import Any, Optional

from ..observability import tracer as _obs
from .events import CWEvent
from .exceptions import ReceiverError
from .windows import Window, WindowOperator, WindowSpec


class Receiver(ABC):
    """Abstract receiver: the director-provided end point of a channel."""

    def __init__(self, port=None):
        #: The input port this receiver belongs to (set on attachment).
        self.port = port

    @abstractmethod
    def put(self, event: CWEvent) -> None:
        """Accept an event arriving over the channel."""

    def put_batch(self, events: list[CWEvent]) -> None:
        """Accept a train of events in arrival order.

        Semantically identical to ``for event in events: self.put(event)``;
        subclasses override it to amortize per-event bookkeeping.
        """
        for event in events:
            self.put(event)

    @abstractmethod
    def get(self) -> Any:
        """Return the next readable item (event or window)."""

    @abstractmethod
    def has_token(self) -> bool:
        """True when :meth:`get` would succeed."""

    def size(self) -> int:
        """Number of readable items currently buffered."""
        return 1 if self.has_token() else 0

    def clear(self) -> None:
        """Discard all buffered content."""


class FIFOReceiver(Receiver):
    """An unbounded first-in/first-out event queue."""

    def __init__(self, port=None):
        super().__init__(port)
        self._queue: deque[CWEvent] = deque()

    def put(self, event: CWEvent) -> None:
        self._queue.append(event)

    def put_batch(self, events: list[CWEvent]) -> None:
        self._queue.extend(events)

    def get(self) -> CWEvent:
        if not self._queue:
            raise ReceiverError(
                f"get() on empty FIFO receiver of port {self.port!r}"
            )
        return self._queue.popleft()

    def has_token(self) -> bool:
        return bool(self._queue)

    def size(self) -> int:
        return len(self._queue)

    def peek(self) -> CWEvent:
        if not self._queue:
            raise ReceiverError("peek() on empty FIFO receiver")
        return self._queue[0]

    def clear(self) -> None:
        self._queue.clear()

    # ------------------------------------------------------------------
    # Checkpointable protocol
    # ------------------------------------------------------------------
    def state_dump(self) -> dict:
        """Snapshot the buffered events (Checkpointable protocol)."""
        return {"queue": list(self._queue)}

    def state_restore(self, state: dict) -> None:
        """Re-apply dumped buffered events (Checkpointable protocol)."""
        self._queue = deque(state["queue"])


class WindowedReceiver(Receiver):
    """The CONFLuEnCE windowed receiver.

    ``put`` inserts the event into the appropriate group-by queue of the
    window operator and, within the same call, checks whether a new window
    is produced; produced windows are stored on the output queue returned by
    ``get``.  Expired events accumulate on :attr:`expired` until drained
    (optionally by a dedicated workflow activity).
    """

    def __init__(self, spec: WindowSpec, port=None):
        super().__init__(port)
        self.spec = spec
        self.operator = WindowOperator(spec)
        self._windows: deque[Window] = deque()
        #: Lateness policy for events behind the applied frontier
        #: (:class:`repro.frontier.LatenessPolicy`); ``None`` admits all.
        self.lateness = None
        #: Newest event-time frontier applied to this queue.
        self._frontier_us = -1

    # ------------------------------------------------------------------
    def put(self, event: CWEvent) -> None:
        from .punctuation import Punctuation, Watermark

        value = event.value
        if isinstance(value, Watermark):
            # Frontier assertion: close complete time panes, remember
            # the bound for lateness classification, consume the item.
            self.close_on_frontier(value.up_to_us)
            return
        if isinstance(value, Punctuation):
            # Control item: close every time window the assertion
            # completes.  Count/wave windows are unaffected — their
            # completeness does not depend on timestamps.
            from .windows import Measure

            if self.spec.measure is Measure.TIME:
                for window in self.operator.force_timeout(
                    now=value.up_to_us
                ):
                    self._deliver(window)
                self._route_expired()
            return
        if (
            self.lateness is not None
            and self._frontier_us >= 0
            and event.timestamp < self._frontier_us
        ):
            disposition = self.lateness.disposition(
                event.timestamp, self._frontier_us
            )
            if disposition != "ontime":
                self._dispose_late(event, disposition)
                return
        for window in self.operator.put(event):
            self._deliver(window)
        self._route_expired()

    def put_batch(self, events: list[CWEvent]) -> None:
        """Insert a train of events through one operator call.

        Falls back to per-event :meth:`put` whenever expired routing is
        configured, the train carries control items, or a lateness
        policy is armed — all interleave side effects between
        insertions, so only the plain streaming case is amortized.
        Window production order is identical either way.
        """
        from .punctuation import Punctuation, Watermark

        target = self.port.expired_to if self.port is not None else None
        if (
            target is not None
            or (self.lateness is not None and self._frontier_us >= 0)
            or any(
                isinstance(event.value, (Punctuation, Watermark))
                for event in events
            )
        ):
            for event in events:
                self.put(event)
            return
        for window in self.operator.put_batch(events):
            self._deliver(window)

    def _dispose_late(self, event: CWEvent, disposition: str) -> None:
        """Drop or side-output one event the lateness policy rejected."""
        if _obs.ENABLED:
            _obs._TRACER.instant(
                "event.late",
                event.timestamp,
                self.port.actor.name if self.port is not None else "?",
                frontier=self._frontier_us,
                disposition=disposition,
            )
        self._note_late(event)
        if disposition == "expired":
            target = self.port.expired_to if self.port is not None else None
            if target is not None:
                target.put(event)

    def _note_late(self, event: CWEvent) -> None:
        """Hook for subclasses to count/retire a rejected late event."""

    def _deliver(self, window: Window) -> None:
        """Route a produced window; subclasses override to hand it off."""
        if _obs.ENABLED and self.port is not None:
            _obs._TRACER.instant(
                "window.ready",
                window.timestamp if len(window) else 0,
                self.port.actor.name,
                port=self.port.name,
                size=len(window),
            )
        self._windows.append(window)

    def _route_expired(self) -> None:
        """Forward expired events to the declared handler port, if any."""
        target = self.port.expired_to if self.port is not None else None
        if target is None or not self.operator.expired:
            return
        for event in self.operator.drain_expired():
            target.put(event)

    def get(self) -> Window:
        if not self._windows:
            raise ReceiverError(
                f"get() on windowed receiver of port {self.port!r} "
                "with no produced window"
            )
        return self._windows.popleft()

    def has_token(self) -> bool:
        return bool(self._windows)

    def size(self) -> int:
        return len(self._windows)

    # ------------------------------------------------------------------
    # Timeouts and maintenance
    # ------------------------------------------------------------------
    def next_deadline(self) -> Optional[int]:
        """Event-time deadline of the earliest pending time window."""
        return self.operator.next_deadline()

    def force_timeout(self, now: Optional[int] = None) -> int:
        """Force-close pending windows; returns how many were produced."""
        produced = self.operator.force_timeout(now)
        for window in produced:
            self._deliver(window)
        self._route_expired()
        return len(produced)

    def next_frontier_boundary(self, up_to_us: int):
        """Earliest closable time-pane boundary at or before *up_to_us*."""
        return self.operator.next_frontier_boundary(up_to_us)

    def close_on_frontier(self, up_to_us: int) -> int:
        """Apply an event-time frontier; returns produced window count.

        Closes every complete time pane (right boundary at or before
        *up_to_us*) and records the bound so later arrivals behind it
        are classified by the lateness policy.  Count/wave windows only
        record the bound.
        """
        if up_to_us > self._frontier_us:
            self._frontier_us = up_to_us
        produced = self.operator.close_on_frontier(up_to_us)
        for window in produced:
            self._deliver(window)
        self._route_expired()
        return len(produced)

    @property
    def expired(self) -> deque[CWEvent]:
        return self.operator.expired

    def drain_expired(self) -> list[CWEvent]:
        return self.operator.drain_expired()

    def pending_events(self) -> int:
        """Events buffered inside the operator, not yet in any window."""
        return self.operator.pending_count()

    def clear(self) -> None:
        self._windows.clear()
        self.operator = WindowOperator(self.spec)

    # ------------------------------------------------------------------
    # Checkpointable protocol
    # ------------------------------------------------------------------
    def state_dump(self) -> dict:
        """Snapshot operator state + produced-window queue (Checkpointable)."""
        state = {
            "operator": self.operator.state_dump(),
            "windows": list(self._windows),
        }
        if self._frontier_us >= 0:
            # Only frontier-enabled runs carry the key, so dumps of
            # frontier-less runs stay byte-identical to the seed's.
            state["frontier_us"] = self._frontier_us
        return state

    def state_restore(self, state: dict) -> None:
        """Re-apply a dump in place on the rebuilt receiver (Checkpointable)."""
        self.operator.state_restore(state["operator"])
        self._windows = deque(state["windows"])
        self._frontier_us = state.get("frontier_us", -1)


def next_timeout_deadline(receivers: list[WindowedReceiver]) -> Optional[int]:
    """Earliest engine time a window-formation timeout falls due.

    *receivers* declare a ``timeout``; it falls due that long after a
    pending pane's right boundary, an O(1) peek per receiver.
    """
    deadlines = [
        boundary + receiver.spec.timeout
        for receiver in receivers
        if (boundary := receiver.next_deadline()) is not None
    ]
    return min(deadlines, default=None)


def fire_due_timeouts(receivers: list[WindowedReceiver], now: int) -> int:
    """Force-close every pane whose formation timeout passed by *now*.

    The due receivers are picked before any fires, then fire in list
    (registration) order.  Returns the number of windows produced.
    """
    due = [
        receiver
        for receiver in receivers
        if (boundary := receiver.next_deadline()) is not None
        and boundary + receiver.spec.timeout <= now
    ]
    return sum(
        receiver.force_timeout(now - receiver.spec.timeout) for receiver in due
    )

"""The TM Windowed Receiver.

Based on the TM receiver of PtolemyII's TM (timed-multitasking) domain and
extending the CONFLuEnCE windowed receiver: when an upstream actor
broadcasts an event, ``put`` runs the window semantics on the group-by
queue, and any produced window is **enqueued at the actor's ready queue at
the SCWF director** (rather than buffered for a blocking reader).  When the
director later decides to run the actor, it dequeues the window and stages
it in the receiver's buffer, making it available to the next ``get`` call
of the actor's ``fire``.

Ports without a declared window behave as plain event queues: every event
is immediately ready work (a "window" of one event, delivered as the bare
event).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from ..core.events import CWEvent
from ..core.exceptions import ReceiverError
from ..core.receivers import WindowedReceiver
from ..core.windows import Window, WindowSpec
from ..observability import tracer as _obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .scwf_director import SCWFDirector


class TMWindowedReceiver(WindowedReceiver):
    """Windowed receiver that hands produced windows to the scheduler."""

    def __init__(
        self,
        spec: Optional[WindowSpec],
        director: "SCWFDirector",
        port=None,
    ):
        self._passthrough = spec is None
        effective = spec if spec is not None else WindowSpec.tokens(
            1, 1, delete_used_events=True
        )
        super().__init__(effective, port)
        self._director = director
        self._buffer: deque = deque()

    def put(self, event: CWEvent) -> None:
        if self._passthrough:
            # Fast path: a windowless port wraps every event in a
            # tokens(1, 1) singleton window only to unwrap it again in
            # ``_deliver``.  Skip the window operator entirely — the
            # passthrough spec never pends, expires, or times out, so
            # the observable behaviour is bit-identical.  (The threaded
            # engine's receiver takes the same shortcut.)
            from ..core.punctuation import Punctuation, Watermark

            if isinstance(event.value, (Punctuation, Watermark)):
                return  # control items never become ready work here
            assert self.port is not None
            tracker = self._director.frontier
            if tracker is not None:
                tracker.observe(event)
            self._director.schedule_ready(
                self.port.actor, self.port.name, event
            )
            return
        super().put(event)

    def put_batch(self, events: list[CWEvent]) -> None:
        """Train intake: one scheduler call for a windowless port's train.

        Passthrough ports hand the whole event train to the scheduler in
        a single ``schedule_ready_batch`` — the per-event path's dominant
        cost.  Windowed ports run the (possibly amortized) operator batch
        insert.
        """
        if self._passthrough:
            from ..core.punctuation import Punctuation, Watermark

            batch = [
                event
                for event in events
                if not isinstance(event.value, (Punctuation, Watermark))
            ]
            if not batch:
                return
            assert self.port is not None
            tracker = self._director.frontier
            if tracker is not None:
                for event in batch:
                    tracker.observe(event)
            self._director.schedule_ready_batch(
                self.port.actor, self.port.name, batch
            )
            return
        super().put_batch(events)

    def _note_late(self, event: CWEvent) -> None:
        tracker = self._director.frontier
        if tracker is not None:
            tracker.note_late()

    # ------------------------------------------------------------------
    def _deliver(self, window: Window) -> None:
        """A produced window goes to the per-actor ready queue."""
        item: Window | CWEvent = window
        if self._passthrough:
            item = window.events[0]
        assert self.port is not None
        tracker = self._director.frontier
        if tracker is not None:
            tracker.observe_item(item)
        if _obs.ENABLED and not self._passthrough:
            # Passthrough events are ubiquitous; window completions are
            # the signal worth a record per delivery.
            _obs._TRACER.instant(
                "window.ready",
                window.timestamp if len(window) else 0,
                self.port.actor.name,
                port=self.port.name,
                size=len(window),
            )
        self._director.schedule_ready(self.port.actor, self.port.name, item)

    # ------------------------------------------------------------------
    # Director-side staging and actor-side reads
    # ------------------------------------------------------------------
    def stage(self, item: Window | CWEvent) -> None:
        """Director deposits the dequeued item for the upcoming firing."""
        self._buffer.append(item)

    def get(self) -> Window | CWEvent:
        if not self._buffer:
            raise ReceiverError(
                f"get() on TM receiver of {self.port!r} with nothing staged"
            )
        return self._buffer.popleft()

    def has_token(self) -> bool:
        return bool(self._buffer)

    def size(self) -> int:
        return len(self._buffer)

    # ------------------------------------------------------------------
    # Checkpointable protocol
    # ------------------------------------------------------------------
    def state_dump(self) -> dict:
        """Snapshot window state + director-staged items (Checkpointable)."""
        state = super().state_dump()
        state["staged"] = list(self._buffer)
        return state

    def state_restore(self, state: dict) -> None:
        """Re-apply the dump on a rebuilt receiver (Checkpointable)."""
        super().state_restore(state)
        self._buffer = deque(state["staged"])

"""Virtual-time model of the thread-based PNCWF director.

The live PNCWF engine (:mod:`repro.directors.pncwf`) delegates all resource
allocation to the operating system: every actor is a thread, the OS
round-robins between runnable threads, and every queue operation pays
lock/notify synchronization.  This module reproduces that execution model
on the virtual clock so it can be compared head-to-head with the STAFiLOS
schedulers in the paper's Figure 8:

* each actor (and each source) is a *simulated thread*;
* a thread is runnable when it has a formed window to consume (sources:
  when an external arrival is due);
* the simulated OS serves runnable threads round-robin with a fixed time
  slice, charging ``cost_model.context_switch_us`` on every switch;
* every event hop through a receiver charges
  ``cost_model.sync_per_event_us`` to the running thread (the lock/notify
  cost of the blocking queues).

These two overheads are the calibrated substitution for "Java threads on an
8-core Xeon" documented in DESIGN.md: they reduce effective capacity by
roughly a third relative to the single-threaded scheduled director, the
ratio the paper measured (thrash at ~120 vs ~160 reports/s).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..core.actors import Actor, SourceActor
from ..core.director import Director
from ..core.events import CWEvent
from ..core.exceptions import DirectorError, ResilienceError
from ..core.ports import InputPort
from ..core.receivers import (
    fire_due_timeouts,
    next_timeout_deadline,
    Receiver,
    WindowedReceiver,
)
from ..core.windows import Window, WindowSpec
from ..resilience import FailureAction, FaultPolicy, FaultSupervisor
from .clock import VirtualClock
from .cost_model import CostModel


class _SimReadyReceiver(WindowedReceiver):
    """Windowed receiver that wakes the owning simulated thread."""

    def __init__(self, spec: Optional[WindowSpec], director, port=None):
        self._passthrough = spec is None
        effective = spec if spec is not None else WindowSpec.tokens(
            1, 1, delete_used_events=True
        )
        super().__init__(effective, port)
        self._director = director

    def _deliver(self, window: Window) -> None:
        item: Window | CWEvent = window
        if self._passthrough:
            item = window.events[0]
        assert self.port is not None
        self._director._make_ready(self.port.actor, self.port.name, item)


class ThreadedCWFDirector(Director):
    """Simulated OS-thread execution of a continuous workflow."""

    model_name = "PNCWF-sim"

    def __init__(
        self,
        clock: VirtualClock,
        cost_model: CostModel,
        os_slice_us: int = 4_000,
        error_policy: FaultPolicy = FaultPolicy(propagate=True),
    ):
        super().__init__()
        try:
            policy = FaultPolicy.coerce(error_policy)
        except ResilienceError as error:
            raise DirectorError(str(error)) from None
        self.clock = clock
        self.cost_model = cost_model
        self.os_slice_us = os_slice_us
        #: Recovery configuration (same semantics as the SCWF director;
        #: defaults to fail-stop so simulation bugs surface loudly).
        self.fault_policy = policy
        #: Per-actor failure state + the dead-letter queue.
        self.supervisor = FaultSupervisor(policy, self.statistics)
        self.actor_errors: dict[str, int] = {}
        #: name -> deque of (port_name, item) ready for consumption.
        self._ready: dict[str, deque] = {}
        self._rotation: deque[str] = deque()
        #: Receivers whose window declares a formation timeout.
        self._timeout_receivers: list[_SimReadyReceiver] = []
        self._sync_charge = 0
        self.context_switches = 0
        self.total_internal_firings = 0

    @property
    def dead_letters(self):
        """The supervisor's dead-letter queue (convenience alias)."""
        return self.supervisor.dead_letters

    # ------------------------------------------------------------------
    def create_receiver(self, port: InputPort) -> Receiver:
        receiver = _SimReadyReceiver(port.window, self, port)
        timed = port.window is not None and port.window.measure.value == "time"
        if timed and port.window.timeout is not None:
            self._timeout_receivers.append(receiver)
        return receiver

    def initialize_all(self) -> None:
        super().initialize_all()
        workflow = self._require_attached()
        self._rotation = deque(workflow.actors.keys())
        for actor in workflow.actors.values():
            self._ready.setdefault(actor.name, deque())

    def current_time(self) -> int:
        return self.clock.now_us

    # ------------------------------------------------------------------
    def _make_ready(self, actor: Actor, port_name: str, item) -> None:
        self._ready[actor.name].append((port_name, item))
        self.statistics.record_input(actor, 1, self.clock.now_us)

    def on_emit(self, actor: Actor, port_name: str, event) -> None:
        # Every queue put pays the blocking-queue synchronization cost
        # (lock + notify per destination receiver), charged to the thread
        # currently holding the (simulated) CPU.
        destinations = len(actor.output(port_name).outgoing)
        self._sync_charge += self.cost_model.sync_per_event_us * max(
            destinations, 1
        )
        super().on_emit(actor, port_name, event)

    # ------------------------------------------------------------------
    def _runnable(self, actor: Actor, now: int) -> bool:
        if actor.is_source:
            assert isinstance(actor, SourceActor)
            return actor.pending_arrivals(now) > 0
        return bool(self._ready[actor.name])

    def run_iteration(self) -> tuple[int, int]:
        """One simulated OS scheduling round over the runnable threads.

        Returns ``(internal_firings, source_emissions)`` like the SCWF
        director so the same :class:`SimulationRuntime` drives both.
        """
        workflow = self._require_attached()
        internal = 0
        emitted = 0
        served_any = True
        # One pass over the rotation; each runnable thread gets one slice.
        for _ in range(len(self._rotation)):
            name = self._rotation[0]
            self._rotation.rotate(-1)
            actor = workflow.actors[name]
            if not self._runnable(actor, self.clock.now_us):
                continue
            self.context_switches += 1
            self.clock.advance(self.cost_model.context_switch_us)
            fired, pumped = self._run_slice(actor)
            internal += fired
            emitted += pumped
        return internal, emitted

    def _run_slice(self, actor: Actor) -> tuple[int, int]:
        """The thread holds the CPU until its slice ends or it blocks."""
        slice_left = self.os_slice_us
        internal = 0
        emitted = 0
        while slice_left > 0 and self._runnable(actor, self.clock.now_us):
            if actor.is_source:
                cost, count = self._fire_source(actor)
                emitted += count
            else:
                cost, fired = self._fire_internal(actor)
                internal += 1 if fired else 0
            slice_left -= cost
        self.total_internal_firings += internal
        return internal, emitted

    def _fire_source(self, source: SourceActor) -> tuple[int, int]:
        ctx = self.make_context(source, self.clock.now_us)
        self._sync_charge = 0
        saved_limit = source.batch_limit
        source.batch_limit = 1  # a blocking thread emits one read at a time
        try:
            count = source.pump(ctx)
        finally:
            source.batch_limit = saved_limit
        ctx.close()
        cost = self.cost_model.source_cost(source, count) + self._sync_charge
        self.clock.advance(cost)
        self.statistics.record_invocation(source, cost)
        return cost, count

    def _fire_internal(self, actor: Actor) -> tuple[int, bool]:
        port_name, item = self._ready[actor.name].popleft()
        supervisor = self.supervisor
        if supervisor.is_quarantined(actor.name):
            # Open circuit: the item bypasses execution entirely.
            supervisor.drop_quarantined(
                actor, port_name, item, self.clock.now_us
            )
            self.actor_errors[actor.name] = (
                self.actor_errors.get(actor.name, 0) + 1
            )
            cost = self.cost_model.sync_per_event_us  # the wasted get()
            self.clock.advance(cost)
            return cost, False
        total_cost = 0
        fired = False
        attempt = 0
        while True:
            ctx = self.make_context(actor, self.clock.now_us)
            ctx.stage(port_name, item)
            self._sync_charge = self.cost_model.sync_per_event_us  # the get()
            try:
                if actor.prefire(ctx):
                    actor.fire(ctx)
                    actor.postfire(ctx)
                    fired = True
                ctx.close()
                cost = (
                    self.cost_model.invocation_cost(actor, ctx)
                    + self._sync_charge
                )
                self.clock.advance(cost)
                total_cost += cost
                self.statistics.record_invocation(actor, cost)
                supervisor.on_success(actor)
                break
            except Exception as error:
                # Fault barrier: discard partial emissions, charge the
                # cheaper failure cost, let the supervisor decide.
                ctx.abort()
                ctx.close()
                attempt += 1
                decision = supervisor.on_failure(
                    actor, port_name, item, error, attempt, self.clock.now_us
                )
                if decision.action is FailureAction.PROPAGATE:
                    raise
                cost = (
                    self.cost_model.failure_cost(actor, ctx)
                    + self._sync_charge
                )
                self.clock.advance(cost)
                total_cost += cost
                if decision.action is FailureAction.RETRY:
                    # The thread sleeps through the backoff in engine time.
                    self.clock.advance(decision.backoff_us)
                    total_cost += decision.backoff_us
                    continue
                # Dead-lettered by the supervisor.
                self.actor_errors[actor.name] = (
                    self.actor_errors.get(actor.name, 0) + 1
                )
                fired = False
                break
        return total_cost, fired

    # ------------------------------------------------------------------
    # Runtime protocol (shared with the SCWF director)
    # ------------------------------------------------------------------
    def next_arrival_time(self) -> Optional[int]:
        workflow = self._require_attached()
        times = [
            arrival
            for source in workflow.sources
            if (arrival := source.next_arrival_time()) is not None
        ]
        return min(times, default=None)

    def next_window_deadline(self) -> Optional[int]:
        return next_timeout_deadline(self._timeout_receivers)

    def fire_window_timeouts(self, now: int) -> int:
        return fire_due_timeouts(self._timeout_receivers, now)

    def backlog(self) -> int:
        return sum(len(queue) for queue in self._ready.values())

    def run_to_quiescence(self, now: int) -> int:
        self.clock.jump_to(now)
        total = 0
        while True:
            internal, emitted = self.run_iteration()
            total += internal
            if internal == 0 and emitted == 0:
                return total

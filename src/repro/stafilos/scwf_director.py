"""The Scheduled CWF (SCWF) director — the heart of STAFiLOS.

The SCWF director is the component that interacts with the workflow model:
it initializes the actors, ports, receivers and the scheduler, and
transitions the workflow through the execution stages of each iteration.
It is *schedule-independent*: the policy is any
:class:`~repro.stafilos.abstract_scheduler.AbstractScheduler`.

One director iteration follows the paper's Figure 3 exactly::

    prefire: signal scheduler (iteration start)
    fire:    loop {
                 actor = scheduler.getNextActor()
                 if actor is None: break
                 if source:   pump due arrivals
                 else:        dequeue ready item -> stage in TM receiver
                              prefire/fire/postfire actor, timing the cost
                 produced events flow through TM receivers back into the
                 scheduler's per-actor ready queues
             }
    postfire: signal scheduler (iteration end: requantify, roll period...)

Time is supplied by a pluggable clock (``now_us``/``advance``/``jump_to``)
and firing costs by a pluggable cost model — virtual implementations live
in :mod:`repro.simulation`.
"""

from __future__ import annotations

from typing import Optional

from ..core.actors import Actor, SourceActor
from ..core.context import FiringContext
from ..core.director import Director
from ..core.events import CWEvent
from ..core.exceptions import DirectorError, ResilienceError
from ..core.ports import InputPort
from ..core.receivers import (
    fire_due_timeouts,
    next_timeout_deadline,
    Receiver,
)
from ..core.windows import Window
from ..observability import tracer as _obs
from ..resilience import FailureAction, FaultPolicy, FaultSupervisor
from .abstract_scheduler import AbstractScheduler
from .tm_receiver import TMWindowedReceiver

#: Sentinel returned by the train fire loop when the firing quantum ran out
#: before a fresh scheduling decision was drawn: the caller must consult
#: ``get_next_actor`` itself.  Distinct from ``None`` ("the scheduler was
#: consulted and ended the iteration") — a drawn decision is consumed
#: exactly once, which matters for policies with stateful selection (the
#: RR source rotation advances inside ``get_next_actor``).
_CONSULT = object()

#: Stand-in event-time bound for "the stream has fully drained": far
#: beyond any admissible timestamp, so every pending pane closes.
_FAR_FUTURE = 2**62


class SCWFDirector(Director):
    """Generic, pluggable scheduled continuous-workflow director."""

    model_name = "SCWF"

    #: Firing-charge hook.  When set, the fire loop calls it once per
    #: dispatched item (empty dispatches included) and makes that item's
    #: engine-time charges — invocation, fused, failure and backoff —
    #: through the ``advance``-like callable it returns.  Dispatch
    #: overhead always goes to the clock directly.  ``None`` charges the
    #: clock as is; the multicore director shares cost across cores.
    item_charge = None

    def __init__(
        self,
        scheduler: AbstractScheduler,
        clock,
        cost_model,
        max_firings_per_iteration: int = 5_000_000,
        error_policy: FaultPolicy = FaultPolicy(propagate=True),
        train_size: Optional[int] = 1,
    ):
        super().__init__()
        try:
            policy = FaultPolicy.coerce(error_policy)
        except ResilienceError as error:
            raise DirectorError(str(error)) from None
        if train_size is not None and (
            not isinstance(train_size, int) or train_size < 1
        ):
            raise DirectorError(
                f"train_size must be a positive int or None, got {train_size!r}"
            )
        #: Event-train firing quantum: how many staged ready items one
        #: dispatch of a non-source actor may drain (``None`` = drain-all),
        #: and the chunk size emission trains are flushed in.  1 (the
        #: default) fires one item per scheduling decision; every value is
        #: bit-identical to 1 by construction (see ``_fire_train``),
        #: batching only the bookkeeping.
        self.train_size = train_size
        self.scheduler = scheduler
        self.clock = clock
        self.cost_model = cost_model
        #: Optional closed-loop overload controller (see
        #: ``repro.overload``); installed via :meth:`apply_qos`.  Caps
        #: source pumping, adjusts idle fast-forward for admission
        #: tokens, and is checkpointed as its own component.
        self.overload = None
        #: Optional :class:`repro.frontier.FrontierTracker`; installed
        #: via :meth:`enable_frontier` *before* ``attach`` so receiver
        #: creation can see the closure mode.  ``None`` keeps every hot
        #: path on the historical branch.
        self.frontier = None
        #: Lateness policy handed to timed receivers at creation.
        self.frontier_lateness = None
        self.max_firings_per_iteration = max_firings_per_iteration
        #: The recovery configuration: ``FaultPolicy(propagate=True)``
        #: propagates actor exceptions (fail-stop); otherwise a failing
        #: firing is a fault barrier — retried per the policy, then the
        #: triggering item is consumed, partial emissions are discarded,
        #: the error counted and the item dead-lettered.
        self.fault_policy = policy
        #: Per-actor failure state + the dead-letter queue.
        self.supervisor = FaultSupervisor(policy, self.statistics)
        self.iterations = 0
        self.total_internal_firings = 0
        self.total_source_firings = 0
        self.total_events_admitted = 0
        self.actor_errors: dict[str, int] = {}
        self._timed_receivers: list[TMWindowedReceiver] = []
        #: Timed receivers whose formation timeout this director fires.
        self._timeout_receivers: list[TMWindowedReceiver] = []
        #: Per-actor facts of the fire loop, by actor name (``_fire_plan``).
        self._fire_plans: dict[str, tuple] = {}
        # ---- next-arrival cache -------------------------------------
        self._arrival_cache: Optional[int] = None
        self._arrival_cache_valid = False
        #: Live (unbounded) sources can grow their arrival schedule from
        #: a background thread; caching is only safe without them.
        self._sources_static = False

    @property
    def dead_letters(self):
        """The supervisor's dead-letter queue (convenience alias)."""
        return self.supervisor.dead_letters

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def create_receiver(self, port: InputPort) -> Receiver:
        receiver = TMWindowedReceiver(port.window, self, port)
        frontier_closes = (
            self.frontier is not None and self.frontier.mode == "close"
        )
        if port.window is not None and port.window.measure.value == "time":
            self._timed_receivers.append(receiver)
            if self.frontier_lateness is not None:
                receiver.lateness = self.frontier_lateness
            # Under frontier closure, timed panes close when the
            # event-time frontier passes them — the engine-time
            # formation-timeout watch would race it non-deterministically
            # across placements, so it is not registered.
            if port.window.timeout is not None and not frontier_closes:
                self._timeout_receivers.append(receiver)
        return receiver

    def initialize_all(self) -> None:
        super().initialize_all()
        workflow = self._require_attached()
        self.scheduler.initialize(workflow, self.statistics)
        # Fused chains prebind the cost model and per-member statistics
        # records so per-hop attribution works from the first firing.
        for actor in workflow.actors.values():
            bind = getattr(actor, "bind_runtime", None)
            if bind is not None:
                bind(self)
        self._sources_static = all(
            not source.unbounded for source in workflow.sources
        )

    def current_time(self) -> int:
        return self.clock.now_us

    def make_context(self, actor: Actor, now: int) -> FiringContext:
        ctx = super().make_context(actor, now)
        if self.train_size != 1:
            ctx.enable_batch_emission(self.train_size, self.on_emit_batch)
        return ctx

    # ------------------------------------------------------------------
    # Scheduler intake (invoked by TM receivers)
    # ------------------------------------------------------------------
    def schedule_ready(
        self, actor: Actor, port_name: str, item: Window | CWEvent
    ) -> None:
        self.total_events_admitted += 1
        self.statistics.record_input(actor, 1, self.clock.now_us)
        self.scheduler.enqueue(actor, port_name, item)

    def schedule_ready_batch(
        self, actor: Actor, port_name: str, items: "list[Window | CWEvent]"
    ) -> None:
        """Train intake: admit a burst of ready items in one call.

        Same observable effect as ``schedule_ready`` per item — the
        admission counter and input statistics are count-based, and
        ``enqueue_batch`` is admission-order equivalent to an enqueue
        loop (falling back to one when a shedder must see every event).
        """
        count = len(items)
        if count == 0:
            return
        if count == 1:
            self.schedule_ready(actor, port_name, items[0])
            return
        self.total_events_admitted += count
        self.statistics.record_input(actor, count, self.clock.now_us)
        self.scheduler.enqueue_batch(actor, port_name, items)

    # ------------------------------------------------------------------
    # The director iteration cycle
    # ------------------------------------------------------------------
    def run_iteration(self) -> tuple[int, int]:
        """One full director iteration.

        Returns ``(internal_firings, source_emissions)`` so the runtime can
        detect lack of progress and fast-forward the clock.
        """
        workflow = self._require_attached()
        scheduler = self.scheduler
        self.iterations += 1
        iteration_start = self.clock.now_us
        if scheduler.shedder is not None:
            # Input-side shedding may advance source cursors.
            self._arrival_cache_valid = False
        scheduler.on_iteration_start(iteration_start)
        internal_firings = 0
        source_emissions = 0
        fired_total = 0
        budget = self.train_size
        next_actor = scheduler.get_next_actor()
        while next_actor is not None:
            actor = next_actor
            if _obs.ENABLED:
                _obs._TRACER.instant(
                    "sched.dispatch",
                    self.clock.now_us,
                    actor.name,
                    source=actor.is_source,
                )
            self.clock.advance(self.cost_model.dispatch_overhead_us)
            if actor.is_source:
                source_emissions += self._fire_source(actor)
                fired_total += 1
                next_actor = scheduler.get_next_actor()
            else:
                # Keep draining this actor while the scheduler keeps
                # choosing it, up to ``budget`` items (one at the default).
                fired, items, carried = self._fire_train(actor, budget)
                internal_firings += fired
                fired_total += items
                next_actor = (
                    scheduler.get_next_actor()
                    if carried is _CONSULT
                    else carried
                )
            if fired_total > self.max_firings_per_iteration:
                raise DirectorError(
                    "director iteration exceeded "
                    f"{self.max_firings_per_iteration} firings; "
                    "scheduler livelock?"
                )
        now = self.clock.now_us
        scheduler.on_iteration_end(now)
        if _obs.ENABLED and fired_total:
            _obs._TRACER.span(
                "director.iteration",
                iteration_start,
                now - iteration_start,
                internal=internal_firings,
                sources=source_emissions,
            )
            _obs._TRACER.counter("sched.backlog", now, scheduler.total_backlog())
        self.total_internal_firings += internal_firings
        self.total_source_firings += source_emissions
        return internal_firings, source_emissions

    def _fire_source(self, source: SourceActor) -> int:
        scheduler = self.scheduler
        now = self.clock.now_us
        allowance = None
        if self.overload is not None:
            allowance = self.overload.pump_allowance(source, now)
            if allowance == 0:
                # Paused by backpressure or token-starved: the dispatch
                # was drawn before the gate closed.  No-op, like an
                # empty-queue internal dispatch.  (``pump`` checks its
                # limit only *after* emitting, so a zero cap must skip
                # the pump call entirely.)
                scheduler.invalidate_state(source)
                scheduler.on_actor_fire_end(source, 0, now)
                return 0
        frontier = self.frontier
        if (
            frontier is not None
            and frontier.mode == "close"
            and not frontier.external
            and (scheduler.total_backlog() or self.consult_frontier())
        ):
            # Frontier-closure admission order: an in-order run reaches
            # a delivery's clock time only after every pane the frontier
            # passed has closed, fired and flushed — the engine settles,
            # then closes, then admits.  An out-of-order source's ripe
            # backlog would otherwise make it dispatchable mid-cascade,
            # letting an arrival overtake a closure's output.  Defer the
            # pump while internal work is pending or a closure round
            # just staged more; the rotation retries the source once the
            # cascade has settled and the bound is fully applied.
            scheduler.invalidate_state(source)
            scheduler.on_actor_fire_end(source, 0, now)
            return 0
        start = now
        scheduler.on_actor_fire_start(source, now)
        ctx = self.make_context(source, now)
        if not source.prefire(ctx):
            scheduler.on_actor_fire_end(source, 0, now)
            return 0
        if allowance is None:
            emitted = source.pump(ctx)
        else:
            # Cap the pump train at the admission allowance.
            saved_limit = source.batch_limit
            limit = (
                allowance
                if saved_limit is None
                else min(allowance, saved_limit)
            )
            source.batch_limit = limit
            try:
                emitted = source.pump(ctx)
            finally:
                source.batch_limit = saved_limit
            self.overload.note_pumped(source, emitted)
        source.postfire(ctx)
        ctx.close()
        # Once per pump train — not per emitted event: the cache only
        # depends on the source cursors, which move inside ``pump``.
        self.invalidate_arrival_cache()
        cost = self.cost_model.source_cost(source, emitted)
        now = self.clock.advance(cost)
        self.statistics.record_invocation(source, cost)
        scheduler.on_actor_fire_end(source, cost, now)
        if _obs.ENABLED:
            _obs._TRACER.span(
                "actor.fire", start, cost, source.name, emitted=emitted
            )
        return emitted

    def _fire_plan(self, actor: Actor) -> tuple:
        """The per-actor facts of the fire loop, resolved at first dispatch.

        ``(record_invocation, fire_batch, fused_flush, fast_base)`` — none
        of them changes while the engine runs, so they are looked up once
        instead of once per dispatch.  Bound ``prefire``/``fire``/
        ``postfire`` and the scheduler's ready queue are deliberately not
        cached: fault injection shadows ``fire`` at run time and ADAPT
        swaps its hosted scheduler.
        """
        # Stateless fast path: ``fire_batch`` may replace the
        # prefire/fire/postfire triple only when the actor kept the
        # trivial base-class lifecycle (both default to "always ready").
        fire_batch = getattr(actor, "fire_batch", None)
        if fire_batch is not None and (
            type(actor).prefire is not Actor.prefire
            or type(actor).postfire is not Actor.postfire
        ):
            fire_batch = None
        # Fused chains settle their own per-member charges; the generic
        # cost paths must not double-charge them.
        fused_flush = getattr(actor, "flush_fused_charges", None)
        # Deterministic cost fast path: when the model's charge is pure
        # integer arithmetic (no jitter, unit scale), inline it and skip
        # two method calls per item.  ``fast_invocation_base`` is duck
        # typed so custom cost models silently keep the full path.
        fast_base_fn = getattr(self.cost_model, "fast_invocation_base", None)
        fast_base = (
            None
            if fast_base_fn is None or fused_flush is not None
            else fast_base_fn(actor)
        )
        plan = self._fire_plans[actor.name] = (
            self.statistics.register(actor).record_invocation,
            fire_batch,
            fused_flush,
            fast_base,
        )
        return plan

    def _fire_train(self, actor: Actor, budget: Optional[int]):
        """Fire up to *budget* ready items of *actor* in one dispatch.

        The only internal firing path: ``train_size=1`` runs it as a
        one-item train.  Longer trains are bit-identical to repetitions of
        the one-item dispatch (``get_next_actor`` → dispatch overhead →
        fire one item) for as long as the scheduler would keep choosing
        *actor*:

        * the scheduler is consulted **between every item** — quantum
          exhaustion, a window landing on a higher-priority actor, or a
          due source all cut the train exactly where the per-event loop
          would have switched;
        * every item is dequeued, charged (dispatch overhead, invocation
          or failure cost), recorded, traced and flushed individually, in
          the same order — only the Python-level bookkeeping (context
          allocation, method lookups) is amortized;
        * a drawn-but-unusable scheduling decision is *carried* back to
          the caller so it is consumed exactly once (policies like RR
          advance rotation state inside ``get_next_actor``).

        Returns ``(completed_firings, items_dispatched, carried)`` where
        ``carried`` is the next actor decision, ``None`` (iteration
        over), or :data:`_CONSULT` (budget exhausted with no decision
        drawn).  Trains never outlive the call: there is no in-flight
        train state for checkpoints to capture — ``checkpoint_barrier``
        runs between director iterations, where every train has fully
        drained.
        """
        scheduler = self.scheduler
        supervisor = self.supervisor
        clock = self.clock
        advance = clock.advance
        plan = self._fire_plans.get(actor.name)
        if plan is None:
            plan = self._fire_plan(actor)
        record_invocation, fire_batch, fused_flush, fast_base = plan
        if fire_batch is not None and "fire" in actor.__dict__:
            # A fault injector shadows ``fire`` on the instance; the
            # class-level batch entry point would bypass it.
            fire_batch = None
        if fire_batch is None:
            actor_prefire = actor.prefire
            actor_fire = actor.fire
            actor_postfire = actor.postfire
        if fast_base is not None:
            per_input_us = self.cost_model.per_input_us
            per_output_us = self.cost_model.per_output_us
        # Engine-time charges made inside a firing go through ``charge``;
        # the hook may replace it per item (see ``item_charge``).
        charge_hook = self.item_charge
        charge = advance
        # With tracing off, ``dequeue_item`` reduces to a queue pop plus a
        # state invalidation that the per-item ``fire_end`` hook (or the
        # explicit empty-dequeue branch below) performs anyway — pop the
        # queue directly.  With tracing on, keep the full call so the
        # ``sched.queue_depth`` counter fires per dequeue.
        obs_on = _obs.ENABLED
        queue_pop = scheduler.ready[actor.name].pop
        fire_start = scheduler.on_actor_fire_start
        fire_end = scheduler.on_actor_fire_end
        is_quarantined = supervisor.is_quarantined
        on_success = supervisor.on_success
        frontier = self.frontier
        max_items = self.max_firings_per_iteration
        fired = 0
        items = 0
        ctx: Optional[FiringContext] = None
        while True:
            if charge_hook is not None:
                charge = charge_hook()
            ready = scheduler.dequeue_item(actor) if obs_on else queue_pop()
            items += 1
            if ready is None:
                # The policy considered the actor runnable, but its queue
                # is empty (e.g. state staleness): a no-op dispatch.
                scheduler.invalidate_state(actor)
            elif is_quarantined(actor.name):
                # Open circuit: the item bypasses execution entirely.
                now = clock.now_us
                fire_start(actor, now)
                supervisor.drop_quarantined(
                    actor, ready.port_name, ready.item, now
                )
                self.actor_errors[actor.name] = (
                    self.actor_errors.get(actor.name, 0) + 1
                )
                if frontier is not None:
                    frontier.retire_item(ready.item)
                fire_end(actor, 0, now)
            else:
                now = clock.now_us
                fire_start(actor, now)
                if ctx is None:
                    ctx = self.make_context(actor, now)
                else:
                    ctx.reset(now)
                ctx.stage(ready.port_name, ready.item)
                fired_this = False
                attempt = 0
                while True:
                    try:
                        if fire_batch is not None:
                            fire_batch(ctx)
                            fired_this = True
                        elif actor_prefire(ctx):
                            actor_fire(ctx)
                            actor_postfire(ctx)
                            fired_this = True
                        ctx.close()
                        # Only a completed attempt records a full
                        # invocation.
                        if fused_flush is not None:
                            # Fused chains accrue per-member charges
                            # internally; advance by the sum, then let the
                            # chain attribute costs/tokens per member and
                            # emit its finals.
                            charge(actor.take_pending_cost())
                            fused_flush(clock.now_us)
                        else:
                            if fast_base is not None:
                                cost = (
                                    fast_base
                                    + per_input_us * ctx.inputs_consumed
                                    + per_output_us * ctx.outputs_produced
                                )
                                if cost < 1:
                                    cost = 1
                            else:
                                cost = self.cost_model.invocation_cost(
                                    actor, ctx
                                )
                            charge(cost)
                            record_invocation(cost)
                        on_success(actor)
                        break
                    except Exception as error:
                        # Fault barrier: discard the failed firing's
                        # partial emissions, charge the (cheaper) failure
                        # cost, and let the supervisor decide: retry,
                        # dead-letter or propagate.
                        ctx.abort()
                        ctx.close()
                        if fused_flush is not None:
                            actor.discard_fused_charges()
                        attempt += 1
                        decision = supervisor.on_failure(
                            actor,
                            ready.port_name,
                            ready.item,
                            error,
                            attempt,
                            clock.now_us,
                        )
                        if decision.action is FailureAction.PROPAGATE:
                            raise
                        charge(self.cost_model.failure_cost(actor, ctx))
                        if _obs.ENABLED:
                            _obs._TRACER.instant(
                                "actor.error",
                                clock.now_us,
                                actor.name,
                                error=type(error).__name__,
                                attempt=attempt,
                            )
                        if decision.action is FailureAction.RETRY:
                            # Exponential backoff charged in engine time.
                            charge(decision.backoff_us)
                            ctx.reset(clock.now_us)
                            ctx.stage(ready.port_name, ready.item)
                            continue
                        # Dead-lettered by the supervisor.
                        self.actor_errors[actor.name] = (
                            self.actor_errors.get(actor.name, 0) + 1
                        )
                        fired_this = False
                        break
                if frontier is not None:
                    # The item's token retires only after its firing
                    # settled — emissions flushed at ctx.close() re-upped
                    # the root first, so a live wave's count never
                    # transiently reaches zero.
                    frontier.retire_item(ready.item)
                end_now = clock.now_us
                fire_end(actor, end_now - now, end_now)
                if fired_this:
                    fired += 1
                if obs_on:
                    _obs._TRACER.span(
                        "actor.fire",
                        now,
                        end_now - now,
                        actor.name,
                        fired=fired_this,
                        port=ready.port_name,
                        attempts=attempt + 1 if fired_this or attempt else 1,
                    )
            if items > max_items:
                raise DirectorError(
                    "director iteration exceeded "
                    f"{max_items} firings; scheduler livelock?"
                )
            if budget is not None and items >= budget:
                return fired, items, _CONSULT
            if not scheduler.continue_train(actor):
                chosen = scheduler.get_next_actor()
                if chosen is not actor:
                    return fired, items, chosen
            # The train continues: charge the dispatch the per-event loop
            # would have paid for re-selecting the same actor.
            if obs_on:
                _obs._TRACER.instant(
                    "sched.dispatch", clock.now_us, actor.name, source=False
                )
            advance(self.cost_model.dispatch_overhead_us)

    # ------------------------------------------------------------------
    # Window timeout events
    # ------------------------------------------------------------------
    def next_window_deadline(self) -> Optional[int]:
        """Earliest engine time a timed-window timeout must fire.

        A receiver participates only when its spec declares a
        ``window_formation_timeout``; the timeout fires that long after the
        window's event-time right boundary.
        """
        return next_timeout_deadline(self._timeout_receivers)

    def fire_window_timeouts(self, now: int) -> int:
        """Force-produce every timed window whose timeout passed by *now*.

        Due receivers fire in registration order.
        """
        produced = fire_due_timeouts(self._timeout_receivers, now)
        if produced and _obs.ENABLED:
            _obs._TRACER.instant("window.timeout_fired", now, produced=produced)
        return produced

    # ------------------------------------------------------------------
    # Frontier progress (repro.frontier)
    # ------------------------------------------------------------------
    def enable_frontier(self, tracker, lateness=None) -> None:
        """Install a frontier tracker (call *before* ``attach``).

        Receiver creation consults the tracker's mode — ``"close"``
        replaces the engine-time formation-timeout watch with
        event-time frontier closure — so enabling after attachment
        would leave the formation timeouts armed.
        """
        if self._attached:
            raise DirectorError(
                "enable_frontier must be called before attach()"
            )
        self.frontier = tracker
        self.frontier_lateness = lateness
        tracker.bind_counters(self.statistics.engine_counters)

    def close_frontier_windows(self, up_to_us: int) -> int:
        """Apply an event-time frontier to every timed receiver.

        Closure is *graduated*: each call closes only the earliest
        pending pane boundary at or before *up_to_us*, then returns so
        the scheduler can fire the staged windows and flush their
        emissions before any later boundary closes.  A windowed actor
        feeding another windowed actor (AvgSv → AvgS in Linear Road)
        needs this — closing both panes in one sweep would deliver the
        upstream firing's output *after* the downstream pane it belongs
        to has already closed, silently dropping it as a straggler.
        Barren boundaries (a pane whose range holds no queued events)
        stage nothing, so the loop continues through them in place.
        """
        produced = 0
        while True:
            boundary = None
            for receiver in self._timed_receivers:
                b = receiver.next_frontier_boundary(up_to_us)
                if b is not None and (boundary is None or b < boundary):
                    boundary = b
            if boundary is None:
                if self.frontier is not None and produced == 0:
                    # Nothing left to close below the bound: record the
                    # full bound so idle consults stop rescanning until
                    # the frontier moves again.
                    self.frontier.note_applied(up_to_us)
                break
            for receiver in self._timed_receivers:
                produced += receiver.close_on_frontier(boundary)
            if self.frontier is not None:
                self.frontier.note_applied(boundary)
            if produced:
                break
        return produced

    def frontier_bound(self) -> Optional[int]:
        """The event-time bound no in-flight or future event precedes.

        The minimum of every source's progress watermark and the
        tracker's outstanding-token frontier; ``None`` when the system
        has fully drained (no bound — every pane is complete).
        """
        workflow = self._require_attached()
        bounds = []
        for source in workflow.sources:
            mark = source.progress_watermark()
            if mark is not None:
                bounds.append(mark)
        frontier_ts = self.frontier.frontier_ts()
        if frontier_ts is not None:
            bounds.append(frontier_ts)
        return min(bounds) if bounds else None

    def consult_frontier(self) -> int:
        """Idle-loop hook: publish progress, close passed panes.

        Returns the number of windows the frontier produced, so the
        runtime treats a closure like any other productive work instead
        of fast-forwarding past it.  Externally driven trackers (shard
        workers applying the coordinator's merged minimum) never
        self-close.
        """
        tracker = self.frontier
        if tracker is None:
            return 0
        now = self.clock.now_us
        tracker.publish(now)
        if tracker.mode != "close" or tracker.external:
            return 0
        bound = self.frontier_bound()
        if bound is None:
            # Fully drained: every remaining pane is complete.
            bound = _FAR_FUTURE
        if bound <= tracker.applied_us:
            return 0
        produced = self.close_frontier_windows(bound)
        if _obs.ENABLED and produced:
            _obs._TRACER.instant(
                "frontier.closed_windows", now,
                bound=bound, produced=produced,
            )
        return produced

    # ------------------------------------------------------------------
    # Idle bookkeeping for the runtime
    # ------------------------------------------------------------------
    def invalidate_arrival_cache(self) -> None:
        """Forget the cached earliest arrival (source cursors moved)."""
        self._arrival_cache_valid = False

    def next_arrival_time(self) -> Optional[int]:
        """Earliest undelivered external arrival across all sources.

        Cached between source firings when every source is static (live
        push sources can grow their schedule asynchronously, so caching
        is disabled the moment one is attached).  An exhausted schedule
        (``None``) is never cached: a late ``load()`` must be seen.
        """
        if self._arrival_cache_valid:
            return self._arrival_cache
        workflow = self._require_attached()
        overload = self.overload
        if overload is not None:
            # Admission tokens can defer an arrival past its schedule
            # time; jumping to the raw arrival would leave the source
            # gated and crawl the clock 1 µs at a time.  Ask the
            # controller for the earliest *admissible* instant per
            # source.  Never cached: token state moves with the clock.
            times = [
                overload.earliest_admission(source, arrival)
                for source in workflow.sources
                if (arrival := source.next_arrival_time()) is not None
            ]
            return min(times, default=None)
        times = [
            arrival
            for source in workflow.sources
            if (arrival := source.next_arrival_time()) is not None
        ]
        value = min(times, default=None)
        if self._sources_static and value is not None:
            self._arrival_cache = value
            self._arrival_cache_valid = True
        return value

    def backlog(self) -> int:
        return self.scheduler.total_backlog()

    # ------------------------------------------------------------------
    # QoS
    # ------------------------------------------------------------------
    def apply_qos(self, policy):
        """Install an overload controller enforcing *policy*.

        Convenience for the common wiring::

            director.apply_qos(QoSPolicy(latency_slo_s=5.0, ...))

        Builds a :class:`repro.overload.OverloadController` from the
        :class:`repro.overload.QoSPolicy` and installs it at the
        scheduler's shedding hook points.  Returns the controller (e.g.
        to attach a latency probe).
        """
        from ..overload import OverloadController

        return OverloadController(policy).install(self)

    def run_to_quiescence(self, now: int) -> int:
        """Composite-boundary entry point: iterate until no progress."""
        self.clock.jump_to(now)
        total = 0
        while True:
            internal, emitted = self.run_iteration()
            total += internal
            if internal == 0 and emitted == 0:
                return total

    # ------------------------------------------------------------------
    # Checkpointable protocol (director-local state only)
    # ------------------------------------------------------------------
    def state_dump(self) -> dict:
        """Snapshot the director's own counters (Checkpointable).

        Scheduler, receivers, supervisor, statistics, clock and cost
        model are separate checkpoint components — the orchestrator in
        :mod:`repro.checkpoint.snapshot` walks them individually.  The
        next-arrival cache is *derived* state and is rebuilt lazily on
        restore instead of serialized.
        """
        return {
            "iterations": self.iterations,
            "total_internal_firings": self.total_internal_firings,
            "total_source_firings": self.total_source_firings,
            "total_events_admitted": self.total_events_admitted,
            "actor_errors": dict(self.actor_errors),
        }

    def state_restore(self, state: dict) -> None:
        """Re-apply director counters and invalidate the arrival cache.

        Dropping the cache forces the next ``next_arrival_time`` call to
        recompute from the (already restored) source cursors, so the run
        continues exactly as an uninterrupted one.
        """
        self.iterations = int(state["iterations"])
        self.total_internal_firings = int(state["total_internal_firings"])
        self.total_source_firings = int(state["total_source_firings"])
        self.total_events_admitted = int(state["total_events_admitted"])
        self.actor_errors = dict(state["actor_errors"])
        self._arrival_cache = None
        self._arrival_cache_valid = False

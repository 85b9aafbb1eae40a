"""Multicore-aware scheduled execution (the paper's §5 scale-up sketch).

"First, the SCWF Director is made aware of the CPU cores topology in
modern machines to balance the distribution of the ready actors queue to
each core while considering data dependencies."

This module implements that direction as a *processor-sharing
approximation* on the virtual clock: through the SCWF fire loop's
``item_charge`` hook, every engine-time charge of a dispatched item
(invocation, fused, failure and backoff cost) is divided by the
instantaneous parallelism — the number of distinct actors that currently
hold ready work, capped at the core count — sampled once per item, so
every ``train_size`` gives the same result.  Dispatch overhead is not
shared.  Two firings of the *same* actor never overlap (an actor
is single-threaded, the data dependency the paper flags), which the model
respects by definition: parallelism counts distinct runnable actors.

This deliberately models the *capacity* effect of multicore execution
(slope of the saturation point with cores) rather than cycle-accurate core
placement; DESIGN.md lists it as an extension, and the ablation bench
verifies the expected behaviour — capacity grows with cores and saturates
once parallelism exceeds the workflow's runnable breadth.
"""

from __future__ import annotations

from ..core.exceptions import DirectorError
from .abstract_scheduler import AbstractScheduler
from .scwf_director import SCWFDirector


class MulticoreSCWFDirector(SCWFDirector):
    """SCWF with processor-sharing across ``cores`` simulated cores."""

    model_name = "SCWF-MC"

    def __init__(
        self,
        scheduler: AbstractScheduler,
        clock,
        cost_model,
        cores: int = 2,
        **kwargs,
    ):
        if cores < 1:
            raise DirectorError("cores must be >= 1")
        super().__init__(scheduler, clock, cost_model, **kwargs)
        self.cores = cores
        #: Sum over firings of the parallelism each ran under (telemetry).
        self._parallelism_weighted = 0.0
        self._parallelism_samples = 0

    # ------------------------------------------------------------------
    def _current_parallelism(self) -> int:
        """Distinct actors with ready work right now, capped at cores.

        Served from the scheduler's incrementally maintained counter —
        O(1) per firing instead of an O(A) rescan of every ready queue.
        """
        runnable = self.scheduler.nonempty_internal_count()
        return max(1, min(self.cores, runnable))

    def mean_parallelism(self) -> float:
        if self._parallelism_samples == 0:
            return 1.0
        return self._parallelism_weighted / self._parallelism_samples

    # ------------------------------------------------------------------
    def item_charge(self):
        """Sample the parallelism the next dispatched item runs under and
        return the clock charge that shares its firing cost across cores.
        """
        parallelism = self._current_parallelism()
        self._parallelism_weighted += parallelism
        self._parallelism_samples += 1
        advance = self.clock.advance

        def shared_advance(delta_us: int) -> int:
            return advance(max(1, int(delta_us / parallelism)))

        return shared_advance

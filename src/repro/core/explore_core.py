"""The EXPLORE decision core: every incumbent-dependent step, once.

EXPLORE (Section 4) walks allocations in cost order and decides each
one against the implemented incumbent: stop (``f_max`` reached,
``max_cost`` or ``max_candidates`` exceeded), prune (possible-allocation
equation, useless communication, flexibility estimate, an
equal-flexibility tie at higher cost), or evaluate and record.
:class:`ExploreCore` owns the incumbent, those decisions, the
statistics they charge and the progress/trace records they emit.

Every driver runs this core and differs only in where a candidate's
incumbent-independent answers (``possible``, ``comm_pruned``,
``estimate``) and its evaluation come from: the engine evaluator on
demand (:class:`EvaluatorAnswers`) or block-vectorized arrays
(:class:`PrefilterAnswers`) in the serial loop, worker-computed
:class:`~repro.parallel.worker.CandidateOutcome` objects in the batched
replay, shard journals in the distributed merge.  Per candidate, in
enumeration order::

    if core.halts(cost) or not core.admit(cost):
        break
    if core.screen(cost, units, answers):
        core.record(cost, units, implementation, solver_calls)

then :meth:`ExploreCore.finish` once.  Driver-specific stops (anytime
budgets, a merge stalled on an unfinished shard) are checked by the
driver before :meth:`ExploreCore.halts`.
"""

from __future__ import annotations

import logging
import time
from typing import List, NamedTuple, Optional

from .pareto import final_front
from .progress import ProgressEmitter

logger = logging.getLogger(__name__)


class PrefilterAnswers(NamedTuple):
    """Precomputed incumbent-independent answers for one candidate.

    ``comm_pruned`` is only read when ``possible`` holds, ``estimate``
    only when the candidate also survives communication pruning.
    """

    possible: bool
    comm_pruned: bool
    estimate: float


def ignore_charge(phase: str, seconds: float) -> None:
    """A ``charge(phase, seconds)`` callback that observes nothing."""


class EvaluatorAnswers:
    """A candidate's answers computed on demand by an engine evaluator.

    The core reads ``possible``, ``comm_pruned`` and ``estimate`` in
    that order and stops at the first prune, so a candidate only pays
    for the checks it reaches.  Estimate wall-clock goes to ``charge``.
    """

    __slots__ = ("evaluator", "units", "charge")

    def __init__(self, evaluator, units, charge=ignore_charge) -> None:
        self.evaluator = evaluator
        self.units = units
        self.charge = charge

    @property
    def possible(self) -> bool:
        return self.evaluator.possible(self.units)

    @property
    def comm_pruned(self) -> bool:
        return self.evaluator.comm_pruned(self.units)

    @property
    def estimate(self) -> float:
        t0 = time.perf_counter()
        value = self.evaluator.estimate(self.units)
        self.charge("estimate", time.perf_counter() - t0)
        return value


class ExploreCore:
    """Incumbent state and decisions of one EXPLORE run.

    ``stats`` is charged by every decision (a resumed run passes its
    restored statistics, then seeds ``f_cur`` and ``points``); the
    option keywords mean what they mean for
    :func:`repro.core.explorer.explore`.  ``infeasibility_reason(units)``
    names audit prunes of infeasible evaluations.  The tracer and the
    profiler form :attr:`sinks`, the one list of wall-clock observers
    charged through ``charge()``.
    """

    __slots__ = (
        "stats",
        "f_max",
        "f_cur",
        "points",
        "estimate",
        "max_cost",
        "max_candidates",
        "use_possible_filter",
        "use_estimation",
        "prune_comm",
        "keep_ties",
        "infeasibility_reason",
        "emitter",
        "tracer",
        "audit",
        "sinks",
    )

    def __init__(
        self,
        stats,
        f_max: float,
        *,
        max_cost: Optional[float] = None,
        max_candidates: Optional[int] = None,
        use_possible_filter: bool = True,
        use_estimation: bool = True,
        prune_comm: bool = True,
        keep_ties: bool = False,
        infeasibility_reason=None,
        emitter: Optional[ProgressEmitter] = None,
        tracer=None,
        profiler=None,
    ) -> None:
        self.stats = stats
        self.f_max = f_max
        #: The best implemented flexibility so far.
        self.f_cur = 0.0
        #: Recorded implementations, in discovery order.
        self.points: List = []
        #: The estimate of the candidate :meth:`screen` last passed.
        self.estimate: Optional[float] = None
        self.max_cost = max_cost
        self.max_candidates = max_candidates
        self.use_possible_filter = use_possible_filter
        self.use_estimation = use_estimation
        self.prune_comm = prune_comm
        self.keep_ties = keep_ties
        self.infeasibility_reason = infeasibility_reason
        self.emitter = emitter or ProgressEmitter(None)
        self.tracer = tracer
        self.audit = tracer is not None and tracer.audit
        #: Wall-clock observers (``charge(phase, seconds)``).
        self.sinks = tuple(s for s in (tracer, profiler) if s is not None)

    # -- wall-clock channel ------------------------------------------------
    def charge(self, phase: str, seconds: float) -> None:
        for sink in self.sinks:
            sink.charge(phase, seconds)

    def timed(self, phase: str, fn, *args):
        """``fn(*args)``, its wall-clock charged to ``phase``."""
        t0 = time.perf_counter()
        result = fn(*args)
        self.charge(phase, time.perf_counter() - t0)
        return result

    # -- lifecycle ---------------------------------------------------------
    def start(self, design_space_size: int, cursor: int = 0) -> None:
        self.emitter.start(design_space_size, self.f_max)
        if self.tracer is not None:
            self.tracer.start(design_space_size, self.f_max, cursor=cursor)

    @property
    def bound_reached(self) -> bool:
        """Whether the incumbent reached the global flexibility bound."""
        return self.f_cur >= self.f_max

    def halts(self, cost: float) -> bool:
        """Whether the walk ends before the candidate at ``cost``: the
        ``f_max`` bound is reached (under ``keep_ties`` only once past
        the maximal point's cost band) or ``cost`` exceeds ``max_cost``."""
        if self.f_cur >= self.f_max:
            points = self.points
            # With ties kept, continue through candidates of the same
            # cost as the maximal point before stopping.
            if not self.keep_ties or not points or cost > points[-1].cost:
                self._stop(
                    "flexibility_bound_reached", cost=cost, f_max=self.f_max
                )
                return True
        if self.max_cost is not None and cost > self.max_cost:
            self._stop("cost_bound", cost=cost, max_cost=self.max_cost)
            return True
        return False

    def admit(self, cost: float) -> bool:
        """Count the candidate at ``cost``; ``False`` when it exceeds
        ``max_candidates`` (the walk ends)."""
        stats = self.stats
        stats.candidates_enumerated += 1
        self.emitter.candidate(
            stats.candidates_enumerated,
            stats.estimate_exceeded,
            stats.feasible_implementations,
            self.f_cur,
        )
        if (
            self.max_candidates is not None
            and stats.candidates_enumerated > self.max_candidates
        ):
            self._stop(
                "max_candidates", cost=cost, max_candidates=self.max_candidates
            )
            return False
        return True

    def _stop(self, reason: str, **fields) -> None:
        """Trace the rule that ends the walk."""
        if self.tracer is not None:
            self.tracer.stop(
                reason, **fields, candidates=self.stats.candidates_enumerated
            )

    # -- per-candidate decisions -------------------------------------------
    def screen(self, cost: float, units, answers) -> bool:
        """Apply the pre-evaluation prunes to an admitted candidate.

        ``answers`` exposes ``possible``, ``comm_pruned`` and
        ``estimate`` (a :class:`PrefilterAnswers`,
        :class:`EvaluatorAnswers` or
        :class:`~repro.parallel.worker.CandidateOutcome`); each is read
        only when its check is reached.  Returns ``True`` when the
        candidate must be evaluated and reported through :meth:`record`.
        """
        stats = self.stats
        audit = self.audit
        if self.use_possible_filter:
            if not answers.possible:
                if audit:
                    self.tracer.prune("impossible_allocation", cost, units)
                return False
            stats.possible_allocations += 1
        if self.prune_comm and answers.comm_pruned:
            stats.pruned_comm += 1
            if audit:
                self.tracer.prune("useless_comm", cost, units)
            return False
        estimate = None
        if self.use_estimation:
            stats.estimates_computed += 1
            estimate = answers.estimate
            f_cur = self.f_cur
            reason = None
            if estimate < f_cur or (estimate == f_cur and not self.keep_ties):
                reason = "estimate_below_incumbent"
            elif (
                self.keep_ties
                and estimate == f_cur
                and self.points
                and cost > self.points[-1].cost
            ):
                # same flexibility at higher cost is dominated
                reason = "tie_higher_cost"
            if reason is not None:
                if audit:
                    self.tracer.prune(
                        reason, cost, units, estimate=estimate, incumbent=f_cur
                    )
                return False
        self.estimate = estimate
        stats.estimate_exceeded += 1
        return True

    def record(
        self,
        cost: float,
        units,
        implementation,
        solver_calls: int,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        diag=None,
    ) -> None:
        """Record the evaluation of the candidate :meth:`screen` passed:
        ``implementation`` (``None`` when infeasible) cost
        ``solver_calls`` binding-solver invocations.  ``t0``/``t1``/
        ``diag`` feed the trace's wall-clock channel only."""
        stats = self.stats
        # Charged per evaluation (not at the end) so that mid-run
        # checkpoints journal the exact replay-time counter.
        stats.solver_invocations += solver_calls
        tracer = self.tracer
        f_cur = self.f_cur
        estimate = self.estimate
        if tracer is not None:
            tracer.evaluate(
                cost,
                units,
                estimate,
                solver_calls,
                implementation is not None,
                implementation.flexibility
                if implementation is not None
                else 0.0,
                f_cur,
                t0=t0,
                t1=t1,
                diag=diag,
            )
        if implementation is None:
            if self.audit:
                tracer.prune(
                    self.infeasibility_reason(units),
                    cost,
                    units,
                    estimate=estimate,
                    incumbent=f_cur,
                )
            return
        stats.feasible_implementations += 1
        points = self.points
        if implementation.flexibility > f_cur:
            self.f_cur = implementation.flexibility
            self._append(implementation)
            logger.debug(
                "incumbent: cost=%g flexibility=%g after %d candidates",
                implementation.cost,
                implementation.flexibility,
                stats.candidates_enumerated,
            )
        elif (
            self.keep_ties
            and points
            and implementation.flexibility == f_cur
            and implementation.cost == points[-1].cost
            and implementation.units != points[-1].units
        ):
            self._append(implementation)
        elif self.audit:
            tracer.prune(
                "not_improving",
                cost,
                units,
                estimate=estimate,
                achieved=implementation.flexibility,
                incumbent=f_cur,
            )

    def _append(self, implementation) -> None:
        self.points.append(implementation)
        event = (
            implementation.cost,
            implementation.flexibility,
            implementation.units,
            self.stats.candidates_enumerated,
            self.stats.estimate_exceeded,
        )
        self.emitter.incumbent(*event)
        if self.tracer is not None:
            self.tracer.incumbent(*event)

    # -- end of run --------------------------------------------------------
    def finish(self, gap=None) -> List:
        """The final front, with the ``dominated`` audit and the end
        events; ``gap`` is the run's truncation
        (:class:`~repro.core.result.OptimalityGap`) or ``None``.

        Cost-ordered discovery with strictly increasing flexibility
        makes the points mutually non-dominated except for one corner
        case: a same-cost candidate later in the tie order may achieve
        strictly more flexibility (see
        :func:`repro.core.pareto.final_front`).
        """
        points = self.points
        front = self.timed("pareto", final_front, points)
        tracer = self.tracer
        # Dominated-point audit records belong to a run's *final*
        # dominance pass; a preempted service slice (truncation
        # suppressed) re-runs this pass every slice and must not
        # re-record them.
        if (
            self.audit
            and len(front) < len(points)
            and (gap is None or tracer.record_truncation)
        ):
            survivors = {id(p) for p in front}
            for p in points:
                if id(p) not in survivors:
                    tracer.prune(
                        "dominated", p.cost, p.units, flexibility=p.flexibility
                    )
        stats = self.stats
        reason = gap.reason if gap is not None else None
        self.emitter.end(
            gap is None,
            reason,
            stats.candidates_enumerated,
            stats.estimate_exceeded,
            len(front),
        )
        if tracer is not None:
            tracer.end(
                gap is None,
                reason,
                stats.candidates_enumerated,
                stats.estimate_exceeded,
                stats.feasible_implementations,
                len(front),
                [list(p.point) for p in front],
            )
        return front


__all__ = ["EvaluatorAnswers", "ExploreCore", "PrefilterAnswers"]

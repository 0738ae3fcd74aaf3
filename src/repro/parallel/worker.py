"""The incumbent-independent candidate pipeline run by pool workers.

A worker receives ``(units, f_entry)`` where ``f_entry`` is the
incumbent flexibility bound at batch-dispatch time, and runs exactly
the per-candidate work of the serial EXPLORE loop that does not depend
on the *current* incumbent: the possible-resource-allocation filter,
the useless-communication pruning, the flexibility estimate, and —
speculatively — the full allocation evaluation (binding + timing).

Speculation invariant
---------------------
The incumbent bound is monotone non-decreasing, so ``f_entry`` is a
lower bound on the incumbent at the moment the serial loop would reach
this candidate.  The serial loop implements a candidate only when its
estimate *exceeds* the incumbent (or equals it under ``keep_ties``);
hence evaluating whenever ``estimate > f_entry`` (or ``>=`` under
``keep_ties``) evaluates a superset of the candidates the serial loop
evaluates, and the deterministic replay in
:mod:`repro.parallel.batched` always finds the evaluation it needs.

For process pools the specification, the run's
:class:`~repro.core.options.ExploreOptions` record and the engine
settings are shipped once per worker through the pool initializer
(:func:`init_worker`), so work items stay small and picklable.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

from ..core.explore_core import EvaluatorAnswers
from ..core.options import ExploreOptions
from ..core.result import EcsRecord, Implementation
from ..errors import ExplorationError
from ..spec import SpecificationGraph


class CandidateOutcome:
    """Everything about a candidate that does not depend on the incumbent.

    All fields are functions of the allocation's canonical signature
    alone (plus the run parameters), which is what makes outcomes
    cacheable across cost bands and reusable for every allocation with
    the same signature: the replay attaches the raw unit set and cost
    when it materialises an :class:`~repro.core.result.Implementation`.
    """

    __slots__ = (
        "possible",
        "comm_pruned",
        "estimate",
        "evaluated",
        "solver_calls",
        "feasible",
        "flexibility",
        "clusters",
        "coverage",
    )

    def __init__(self) -> None:
        #: Result of the possible-resource-allocation equation (only
        #: meaningful when the filter is enabled).
        self.possible = True
        #: True when the useless-communication pruning drops the candidate.
        self.comm_pruned = False
        #: The flexibility estimate (``None`` when estimation is off or
        #: an earlier stage already rejected the candidate).
        self.estimate: Optional[float] = None
        #: True when the full evaluation was (speculatively) performed.
        self.evaluated = False
        #: Binding-solver invocations the evaluation performed — charged
        #: to the run statistics only when the replay uses the outcome.
        self.solver_calls = 0
        #: Whether the evaluation produced a feasible implementation.
        self.feasible = False
        self.flexibility = 0.0
        self.clusters: FrozenSet[str] = frozenset()
        self.coverage: List[EcsRecord] = []

    def implementation_for(
        self, units: FrozenSet[str], cost: float
    ) -> Optional[Implementation]:
        """Materialise the implementation for a concrete allocation."""
        if not self.feasible:
            return None
        return Implementation(
            units, cost, self.flexibility, self.clusters, self.coverage
        )

    def evaluation(self, units: FrozenSet[str], cost: float, source: str):
        """``(implementation, solver_calls)`` of a candidate the replay
        must evaluate; the speculation invariant guarantees the
        evaluation happened unless ``source`` is not this run's."""
        if not self.evaluated:
            raise ExplorationError(
                f"internal: {source} holds no speculative evaluation for a "
                f"candidate passing the incumbent bound (violated "
                f"monotonicity invariant)"
            )
        return self.implementation_for(units, cost), self.solver_calls

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CandidateOutcome(possible={self.possible}, "
            f"comm_pruned={self.comm_pruned}, estimate={self.estimate}, "
            f"evaluated={self.evaluated}, feasible={self.feasible})"
        )


#: Test seam of the fault-injection harness: when not ``None``, called
#: as ``_FAULT_HOOK("worker", units=units)`` at the top of
#: :func:`evaluate_candidate` — in pool workers and inline alike.
#: Installed/cleared by :func:`repro.resilience.faults.install`; never
#: set in production use, so the fault-free path costs one global read.
_FAULT_HOOK = None


def evaluate_candidate(
    evaluator,
    params: ExploreOptions,
    units: FrozenSet[str],
    f_entry: float,
    answers=None,
) -> CandidateOutcome:
    """Run the incumbent-independent pipeline for one candidate.

    ``evaluator`` is the engine evaluator of this run (built once by
    :meth:`ExploreOptions.evaluator`); both engines expose the same
    protocol and produce identical outcomes.  ``answers`` — precomputed
    pre-filter answers (default: computed by the evaluator on demand).
    """
    if _FAULT_HOOK is not None:
        _FAULT_HOOK("worker", units=units)
    if answers is None:
        answers = EvaluatorAnswers(evaluator, units)
    out = CandidateOutcome()
    if params.use_possible_filter:
        out.possible = answers.possible
        if not out.possible:
            return out
    if params.prune_comm:
        out.comm_pruned = answers.comm_pruned
        if out.comm_pruned:
            return out
    if params.use_estimation:
        out.estimate = answers.estimate
        speculate = out.estimate > f_entry or (
            params.keep_ties and out.estimate == f_entry
        )
        if not speculate:
            return out
    counter = [0]
    implementation = evaluator.evaluate(units, solver_counter=counter)
    out.evaluated = True
    out.solver_calls = counter[0]
    if implementation is not None:
        out.feasible = True
        out.flexibility = implementation.flexibility
        out.clusters = implementation.clusters
        out.coverage = implementation.coverage
    return out


# --- process-pool plumbing -------------------------------------------------
#
# Each worker process holds the engine evaluator (with its caches and
# precompiled tables) and the run parameters in module globals,
# installed once by the pool initializer; work items are then just
# (units, f_entry) pairs.  The compiled tables are never pickled — each
# worker compiles its own from the shipped specification.

_WORKER_EVALUATOR = None
_WORKER_PARAMS: Optional[ExploreOptions] = None


def init_worker(
    spec: SpecificationGraph,
    params: ExploreOptions,
    engine: Optional[str] = None,
    warm_store: Optional[str] = None,
    fault_plan=None,
) -> None:
    """Pool initializer: install per-worker evaluation state.

    ``warm_store`` is a plain directory path, so it pickles: each
    worker opens its own store handle on the shared directory.
    ``fault_plan`` — an optional
    :class:`repro.resilience.faults.FaultPlan` shipped from the parent
    so the fault-injection harness also reaches process-pool children.
    """
    global _WORKER_EVALUATOR, _WORKER_PARAMS
    _WORKER_PARAMS = params
    _WORKER_EVALUATOR = params.evaluator(spec, engine, warm_store)
    if fault_plan is not None:
        from ..resilience import faults

        faults.install(fault_plan)


def pool_evaluate(
    task: Tuple[FrozenSet[str], float]
) -> CandidateOutcome:
    """Top-level (picklable) work function for process pools."""
    units, f_entry = task
    return evaluate_candidate(
        _WORKER_EVALUATOR, _WORKER_PARAMS, units, f_entry
    )

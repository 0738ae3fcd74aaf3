"""Incremental design: flexibility upgrades of an existing platform.

The paper's introduction contrasts its guarantees with Pop et al.'s
incremental mapping, which "can not guarantee that future applications
do not interfere with the already running functionality".  This module
provides the flexibility-centric version of incremental design with
exactly that guarantee: starting from a *base allocation* (the shipped
product), only *supersets* of the base are explored.  Because an
allocation can only grow, every elementary cluster-activation that was
feasible on the base remains feasible after the upgrade — routing only
gains nodes, per-resource utilisation of an existing binding is
unchanged, and the one-cluster-per-interface rule is a per-activation
property (:func:`upgrade_preserves_base` checks this invariant
explicitly).
"""

from __future__ import annotations

import time
from typing import FrozenSet, Iterable, List, Optional

from ..binding import Allocation, Binding, is_feasible_binding
from ..errors import ExplorationError
from ..activation import flatten
from ..spec import SpecificationGraph
from ..timing import PAPER_UTILIZATION_BOUND
from .candidates import AllocationEnumerator
from .estimate import spec_max_flexibility
from .evaluation import ReferenceEvaluator
from .explore_core import EvaluatorAnswers, ExploreCore
from .result import ExplorationResult, ExplorationStats, Implementation


class UpgradeResult(ExplorationResult):
    """An exploration result rooted at a base implementation.

    ``points`` holds the Pareto-optimal *upgrades* (the base itself is
    included when nothing cheaper dominates it); ``base`` is the
    evaluated base implementation.
    """

    __slots__ = ("base",)

    def __init__(
        self,
        base: Implementation,
        points: List[Implementation],
        stats: ExplorationStats,
        max_flexibility_bound: float,
    ) -> None:
        super().__init__(points, stats, max_flexibility_bound)
        self.base = base

    def upgrade_costs(self) -> List[float]:
        """Additional cost of each point relative to the base."""
        return [p.cost - self.base.cost for p in self.points]

    def __repr__(self) -> str:
        return (
            f"UpgradeResult(base=${self.base.cost:g}/"
            f"f{self.base.flexibility:g}, front={self.front()!r})"
        )


def explore_upgrades(
    spec: SpecificationGraph,
    base_units: Iterable[str],
    util_bound: float = PAPER_UTILIZATION_BOUND,
    max_extra_cost: Optional[float] = None,
    check_utilization: bool = True,
    weighted: bool = False,
    prune_comm: bool = True,
) -> UpgradeResult:
    """Pareto-optimal flexibility upgrades of ``base_units``.

    Enumerates supersets of the base allocation in increasing extra
    cost and applies the EXPLORE pruning (flexibility estimation, and
    optionally the useless-communication rule) relative to the base's
    implemented flexibility.

    Raises :class:`~repro.errors.ExplorationError` when the base
    allocation itself supports no feasible implementation.
    """
    started = time.perf_counter()
    base_set = frozenset(spec.units.unit(u).name for u in base_units)
    evaluator = ReferenceEvaluator(
        spec,
        util_bound=util_bound,
        check_utilization=check_utilization,
        weighted=weighted,
    )
    base = evaluator.evaluate(base_set)
    if base is None:
        raise ExplorationError(
            f"base allocation {sorted(base_set)!r} has no feasible "
            f"implementation; nothing to upgrade"
        )
    remaining = [n for n in spec.units.names() if n not in base_set]
    if max_extra_cost is None and any(
        spec.units.unit(n).cost <= 0 for n in remaining
    ):
        raise ExplorationError(
            "specification has zero-cost units outside the base; pass "
            "max_extra_cost to bound the enumeration"
        )

    stats = ExplorationStats()
    stats.design_space_size = 1 << len(remaining)
    f_max = spec_max_flexibility(spec, weighted)
    core = ExploreCore(
        stats,
        f_max,
        max_cost=max_extra_cost,
        use_possible_filter=False,
        prune_comm=prune_comm,
    )
    core.f_cur = base.flexibility
    core.points = [base]
    # The decisions run on the extra cost, which max_extra_cost bounds.
    for extra_cost, extras in AllocationEnumerator(spec, remaining):
        if core.halts(extra_cost) or not core.admit(extra_cost):
            break
        units = base_set | extras
        if core.screen(
            extra_cost, units, EvaluatorAnswers(evaluator, units)
        ):
            counter = [0]
            implementation = evaluator.evaluate(units, solver_counter=counter)
            core.record(extra_cost, units, implementation, counter[0])
    points = core.finish()
    stats.elapsed_seconds = time.perf_counter() - started
    return UpgradeResult(base, points, stats, f_max)


def upgrade_preserves_base(
    spec: SpecificationGraph,
    base: Implementation,
    upgraded_units: FrozenSet[str],
    util_bound: float = PAPER_UTILIZATION_BOUND,
) -> bool:
    """Check the non-interference guarantee explicitly.

    True when every covering elementary cluster-activation of the base
    implementation — selection *and* binding — is still feasible under
    the upgraded allocation.  This is the property Pop et al.'s
    incremental approach cannot guarantee and superset upgrades provide
    by construction.
    """
    if not base.units <= upgraded_units:
        return False
    allocation = Allocation(spec, upgraded_units)
    for record in base.coverage:
        flat = flatten(spec.problem, record.selection, spec.p_index)
        binding = Binding(spec, record.binding)
        if not is_feasible_binding(
            spec, allocation, flat, binding, util_bound
        ):
            return False
    return True

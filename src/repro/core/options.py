"""EXPLORE's result options: one record from CLI flags to shard journals.

:class:`ExploreOptions` declares the result-affecting parameter set of
EXPLORE once: its defaults, its value checks, its JSON form (checkpoint
header, shard manifest, job ledger, shard-worker ``run`` payload) and
the construction of a run (:meth:`ExploreOptions.prepare`).  "Is this
the same run?" is one record comparison wherever a journal or manifest
is reused.  Execution settings (``engine``, ``warm_store``, pool
geometry, budgets) are not fields: they never change a result.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
)

from ..errors import ExplorationError
from ..spec import SpecificationGraph
from ..timing import PAPER_UTILIZATION_BOUND
from .estimate import estimate_flexibility
from .evaluation import (
    BINDING_BACKENDS,
    TIMING_MODES,
    cache_counter_snapshot,
    make_evaluator,
)
from .explore_core import ExploreCore
from .result import ExplorationStats

#: The fields holding unit-name collections (stored as sorted tuples).
_UNIT_FIELDS = ("require_units", "forbid_units")


class ExplorationSetup(NamedTuple):
    """Validated, precomputed inputs shared by the exploration drivers
    (the possible-allocation equation is the engine evaluator's)."""

    #: Units every candidate must contain (resolved names).
    required: FrozenSet[str]
    #: Units no candidate may contain (resolved names).
    forbidden: FrozenSet[str]
    #: The freely allocatable units, i.e. neither required nor forbidden.
    extra_names: List[str]
    #: Total cost of the required units.
    required_cost: float
    #: Global flexibility upper bound (the stop condition).
    f_max: float


def prepare_exploration(
    spec: SpecificationGraph,
    require_units: Optional[Iterable[str]],
    forbid_units: Optional[Iterable[str]],
    max_cost: Optional[float],
    weighted: bool,
    evaluator=None,
) -> ExplorationSetup:
    """Validate the specification/constraints and precompute run inputs.

    ``evaluator`` — when given, the engine evaluator computes ``f_max``
    (both engines agree on every estimate, differentially tested).
    """
    if not spec.frozen:
        raise ExplorationError("specification must be frozen before explore()")
    required = frozenset(
        spec.units.unit(u).name for u in (require_units or ())
    )
    forbidden = frozenset(
        spec.units.unit(u).name for u in (forbid_units or ())
    )
    if required & forbidden:
        raise ExplorationError(
            f"units {sorted(required & forbidden)!r} are both required "
            f"and forbidden"
        )
    extra_names = [
        n
        for n in spec.units.names()
        if n not in required and n not in forbidden
    ]
    if max_cost is None and any(
        spec.units.unit(n).cost <= 0 for n in extra_names
    ):
        raise ExplorationError(
            "specification has zero-cost units; pass max_cost to bound "
            "the enumeration"
        )
    required_cost = spec.units.total_cost(required)
    all_usable = set(spec.units.names()) - forbidden
    if evaluator is not None:
        f_max = evaluator.estimate(frozenset(all_usable))
    else:
        f_max = estimate_flexibility(spec, all_usable, weighted)
    return ExplorationSetup(
        required, forbidden, extra_names, required_cost, f_max
    )


class ExploreOptions(NamedTuple):
    """The result-affecting options of one EXPLORE run.

    Build records with :meth:`of` (or :meth:`split`/:meth:`from_dict`),
    which store the unit collections as sorted tuples so that equal
    options compare equal whatever iterable the caller passed.
    """

    #: Utilisation acceptance bound (the paper's 69%).
    util_bound: float = PAPER_UTILIZATION_BOUND
    #: Stop at this allocation cost.  Mandatory when the specification
    #: has zero-cost units (cost order alone would then not bound the
    #: enumeration).
    max_cost: Optional[float] = None
    #: Stop after this many enumerated candidates (incompatible with
    #: sharding: positions differ per shard).
    max_candidates: Optional[int] = None
    #: The three pruning techniques (toggled by the ablation bench).
    use_possible_filter: bool = True
    use_estimation: bool = True
    prune_comm: bool = True
    #: Disable to explore without the performance test.
    check_utilization: bool = True
    #: Use the footnote-2 weighted flexibility.
    weighted: bool = False
    #: Binding-solver backend, ``"csp"`` or ``"sat"``.
    backend: str = "csp"
    #: The published EXPLORE keeps only the first implementation per
    #: (cost, flexibility) point (strict ``f > f_cur``); ``True`` also
    #: reports every equally-optimal allocation — e.g. all $230/f=4
    #: variants of the case study.
    keep_ties: bool = False
    #: Performance test: ``"utilization"`` (the paper's 69% estimate,
    #: the default), ``"schedule"`` (exact one-period list scheduling —
    #: the paper's future work) or ``"none"``.  Overrides
    #: ``check_utilization`` when given.
    timing_mode: Optional[str] = None
    #: What-if constraints: only allocations containing every required
    #: unit and none of the forbidden ones are considered ("the
    #: platform must keep the ASIC", "the FPGA vendor is out").
    require_units: Optional[Tuple[str, ...]] = None
    forbid_units: Optional[Tuple[str, ...]] = None

    @classmethod
    def of(cls, **fields: Any) -> "ExploreOptions":
        """The record of ``fields`` (absent ones default); unknown
        names raise :class:`TypeError` like any keyword mismatch."""
        for name in _UNIT_FIELDS:
            units = fields.get(name)
            if units is not None:
                fields[name] = tuple(sorted(units))
        return cls(**fields)

    @classmethod
    def split(
        cls, options: Mapping[str, Any]
    ) -> Tuple["ExploreOptions", Dict[str, Any]]:
        """``(record, rest)``: the record of the fields named in
        ``options`` and the remaining (execution) keywords."""
        rest = dict(options)
        fields = {name: rest.pop(name) for name in cls._fields if name in rest}
        return cls.of(**fields), rest

    def override(self, **fields: Any) -> "ExploreOptions":
        """This record with ``fields`` replaced (normalised like
        :meth:`of`)."""
        return self.of(**{**self._asdict(), **fields})

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "ExploreOptions":
        """The record of a persisted options document (checkpoint-header
        ``params``, manifest or job options): keys that are not fields
        are ignored, missing fields take their defaults."""
        return cls.split(document)[0]

    def to_dict(self, names: Optional[Iterable[str]] = None) -> Dict[str, Any]:
        """The JSON-ready form of every field — or, given ``names``,
        of just the fields among them (the keys a caller passed)."""
        wanted = set(self._fields if names is None else names)
        return {
            name: list(value) if name in _UNIT_FIELDS and value is not None
            else value
            for name, value in zip(self._fields, self)
            if name in wanted
        }

    def changed(self, other: "ExploreOptions") -> List[str]:
        """The names of the fields whose values differ from ``other``."""
        return [
            name
            for name, mine, theirs in zip(self._fields, self, other)
            if mine != theirs
        ]

    def validate(self) -> None:
        """Reject an unknown ``backend`` or ``timing_mode`` with a clear
        :class:`ExplorationError` (instead of a silent CSP fallthrough
        or a ``ValueError`` from deep inside the evaluation)."""
        if self.backend not in BINDING_BACKENDS:
            raise ExplorationError(
                f"unknown binding backend {self.backend!r}; "
                f"expected one of {BINDING_BACKENDS}"
            )
        if self.timing_mode not in (None,) + TIMING_MODES:
            raise ExplorationError(
                f"unknown timing_mode {self.timing_mode!r}; "
                f"expected one of {TIMING_MODES}"
            )

    def evaluator(
        self,
        spec: SpecificationGraph,
        engine: Optional[str] = None,
        warm_store: Optional[str] = None,
    ):
        """The engine evaluator of a run under these options.

        Built once per run (or once per process-pool worker) — never
        per candidate: the compiled engine's cross-candidate caches
        live on the evaluator.
        """
        return make_evaluator(
            spec,
            engine,
            util_bound=self.util_bound,
            check_utilization=self.check_utilization,
            weighted=self.weighted,
            backend=self.backend,
            timing_mode=self.timing_mode,
            warm_store=warm_store,
        )

    def prepare(
        self,
        spec: SpecificationGraph,
        engine: Optional[str] = None,
        warm_store: Optional[str] = None,
        *,
        emitter=None,
        tracer=None,
        profiler=None,
    ) -> Tuple[Any, ExplorationSetup, ExplorationStats, ExploreCore, Any]:
        """The construction every exploration driver shares:
        ``(evaluator, setup, stats, core, cache_base)`` — the engine
        evaluator, the setup, fresh statistics (design-space size
        charged), the decision core charging them, and the evaluator's
        cache counters before the run (for
        :func:`~repro.core.evaluation.charge_cache_counters`)."""
        if not spec.frozen:
            raise ExplorationError(
                "specification must be frozen before explore()"
            )
        evaluator = self.evaluator(spec, engine, warm_store)
        cache_base = cache_counter_snapshot(evaluator)
        setup = prepare_exploration(
            spec,
            self.require_units,
            self.forbid_units,
            self.max_cost,
            self.weighted,
            evaluator=evaluator,
        )
        stats = ExplorationStats()
        stats.design_space_size = 1 << len(setup.extra_names)
        core = ExploreCore(
            stats,
            setup.f_max,
            max_cost=self.max_cost,
            max_candidates=self.max_candidates,
            use_possible_filter=self.use_possible_filter,
            use_estimation=self.use_estimation,
            prune_comm=self.prune_comm,
            keep_ties=self.keep_ties,
            infeasibility_reason=evaluator.infeasibility_reason,
            emitter=emitter,
            tracer=tracer,
            profiler=profiler,
        )
        return evaluator, setup, stats, core, cache_base

"""The compiled candidate evaluator (``engine="compiled"``).

One :class:`CompiledEvaluator` per (specification, parameter set),
shared across every candidate of a run — and across runs, service
slices and resumes of the same specification.  It reproduces the
reference pipeline of :mod:`repro.core.evaluation` *exactly* (fronts,
statistics, progress events and logical trace records are
differentially tested to be identical) while eliminating its
per-candidate rework:

* allocations are bitmasks; the possible-allocation equation is a BDD
  walk; ``has_useless_comm`` and the reduction predicates are mask
  tests with projection-keyed caches (:class:`CompiledSpec`);
* each elementary cluster-activation is flattened and tabled once,
  ever (``CompiledSpec.ecs_info``);
* binding verdicts are memoized across candidates under the key
  ``(ecs, usable_mask & ecs.support)`` — the *relevance projection* —
  because the backtracking search reads only the usable units that can
  own one of the ECS's mapping options or route traffic (see
  ``docs/performance.md`` for the soundness argument);
* a verdict miss splits into a reusable :class:`SearchPlan` and a
  search run.  The plan — filtered domains, the ``(len(domain), leaf)``
  order, and each position's earlier neighbours — is interned under the
  coarser key ``(ecs, usable_mask & ecs.owners)``: the domain filter
  reads only option-owner bits and the rest is a function of the
  domains, so misses that differ only in communication units share one
  plan, and only the run reads those units (through router
  reachability);
* the run replays :class:`repro.binding.BindingSolver` decision-for-
  decision as one iterative search, so its statistics deltas
  (invocations, assignments, backtracks, solutions, utilisation
  rejections) equal the reference solver's, including the
  generator-abandonment semantics of ``solve()`` and of the
  ``timing_mode="schedule"`` loop.
"""

from __future__ import annotations

import time
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    NamedTuple,
    Optional,
    Tuple,
)

from ..binding import Allocation, solve_binding_sat
from ..core.evaluation import (
    BINDING_BACKENDS,
    SCHEDULE_SEARCH_LIMIT,
    TIMING_MODES,
)
from ..core.explore_core import ignore_charge
from ..core.result import EcsRecord, Implementation
from ..timing import PAPER_UTILIZATION_BOUND, schedule_meets_periods
from .enumerate import MaskAllocationEnumerator
from .spec import CompiledSpec, EcsInfo

#: Zero solver-stats delta (sat backend: the reference never touches
#: ``BindingSolver.stats`` on the sat path).
_ZERO_DELTAS = (0, 0, 0, 0, 0)


#: One mapping option as the search reads it:
#: ``(resource, owner_bit, owner_top, iface, increment, slot)`` (see
#: :meth:`CompiledEvaluator._template`).
OptionEntry = Tuple[str, int, int, int, Optional[float], int]


class EcsTemplate(NamedTuple):
    """What every search plan of one ECS shares."""

    #: Per-leaf option entries in mapping-edge order, aligned with
    #: ``EcsInfo.leaves``.
    entries: Tuple[Tuple[OptionEntry, ...], ...]
    #: Number of ECS-local resource slots and interface indices.
    n_slots: int
    n_ifaces: int


class SearchPlan(NamedTuple):
    """The set-up of one binding search: the part of a verdict miss that
    depends on the usable set only through its option-owner bits
    (``usable & ecs.owners``)."""

    #: Per-position usable mapping options, in search order.
    domains: Tuple[Tuple[OptionEntry, ...], ...]
    #: Leaf indices (into ``EcsInfo.leaves``) sorted by
    #: ``(len(domain), leaf)`` — the reference's MRV order.
    order: Tuple[int, ...]
    #: Leaf names in search order.
    leaves: Tuple[str, ...]
    #: Per position, the positions of its neighbours bound before it.
    earlier: Tuple[Tuple[int, ...], ...]
    #: Number of ECS-local resource slots and interface indices.
    n_slots: int
    n_ifaces: int


#: Plan sentinel: some leaf has no usable mapping option, so the search
#: fails before its first assignment.
_EMPTY_DOMAIN = SearchPlan((), (), (), (), 0, 0)


class Verdict:
    """Cached outcome of solving one ECS under one usable projection."""

    __slots__ = (
        "binding",
        "deltas",
        "timing_checks",
        "timing_rejections",
        "timing_seconds",
    )

    def __init__(
        self,
        binding: Optional[Dict[str, str]],
        deltas: Tuple[int, int, int, int, int],
        timing_checks: int,
        timing_rejections: int,
        timing_seconds: float,
    ) -> None:
        #: First feasible assignment (process -> resource), or ``None``.
        self.binding = binding
        #: (invocations, assignments, backtracks, solutions,
        #: util_rejections) the reference solver would have recorded.
        self.deltas = deltas
        self.timing_checks = timing_checks
        self.timing_rejections = timing_rejections
        #: Wall-clock of the schedule checks at compute time (diagnostic
        #: only; replayed verbatim on cache hits).
        self.timing_seconds = timing_seconds


class CompiledEvaluator:
    """Mask-native evaluator implementing the engine interface."""

    engine = "compiled"

    def __init__(
        self,
        cspec: CompiledSpec,
        util_bound: float = PAPER_UTILIZATION_BOUND,
        weighted: bool = False,
        backend: str = "csp",
        timing_mode: str = "utilization",
    ) -> None:
        if timing_mode not in TIMING_MODES:
            raise ValueError(f"unknown timing_mode {timing_mode!r}")
        if backend not in BINDING_BACKENDS:
            raise ValueError(f"unknown binding backend {backend!r}")
        self.cs = cspec
        self.spec = cspec.spec
        self.util_bound = util_bound
        self.weighted = weighted
        self.backend = backend
        self.timing_mode = timing_mode
        self.check_utilization = timing_mode == "utilization"
        #: Cross-candidate binding verdicts keyed by
        #: ``(ecs_mask, usable_mask & ecs.support)``.
        self._verdicts: Dict[Tuple[int, int], Verdict] = {}
        #: Binding-search plans keyed by
        #: ``(ecs_mask, usable_mask & ecs.owners)`` (see ``_plan``).
        self._plans: Dict[Tuple[int, int], SearchPlan] = {}
        #: Per-ECS plan templates, keyed by ECS mask (see ``_template``).
        self._templates: Dict[int, EcsTemplate] = {}
        #: One-slot identity-keyed units->mask memo (the shared loop
        #: calls possible/comm/estimate/evaluate on the same frozenset).
        self._last_units: Optional[FrozenSet[str]] = None
        self._last_masks: Tuple[int, int] = (0, 0)
        self._relaxed: Optional["CompiledEvaluator"] = None
        #: Warm-start store attachment (:mod:`repro.store`): the
        #: directory path and the bound namespace handle, or ``None``.
        self._warm_path: Optional[str] = None
        self._warm = None
        # Memo/warm cache counters (process-lifetime, monotone — runs
        # snapshot and charge deltas; see ``cache_counters``).
        self.memo_hits = 0
        self.memo_misses = 0
        self.warm_hits = 0
        self.warm_misses = 0
        self.warm_writes = 0
        self.warm_corruptions = 0
        #: Optional wall-clock sink (``charge(phase, seconds)`` — a
        #: :class:`repro.telemetry.PhaseProfiler`): when set and no
        #: ``detail`` dict is requested, per-solve binding/timing
        #: wall-clock is charged here.  Pure observation — verdicts and
        #: results are unaffected.
        self.phase_sink = None

    # ------------------------------------------------------------------
    # Engine interface
    # ------------------------------------------------------------------
    def enumerator(
        self,
        units: Optional[Iterable[str]] = None,
        include_empty: bool = False,
    ) -> MaskAllocationEnumerator:
        """Cost-ordered candidate enumeration (``(cost, units)`` pairs)."""
        return MaskAllocationEnumerator(
            self.cs,
            list(units) if units is not None else None,
            include_empty=include_empty,
        )

    def block_context(
        self,
        extra_names,
        include_empty: bool,
        required: FrozenSet[str],
        required_cost: float,
        *,
        use_possible_filter: bool = True,
        prune_comm: bool = True,
        use_estimation: bool = True,
        charge=ignore_charge,
    ):
        """A batch-vectorized exploration context
        (:class:`repro.compiled.batch.BlockContext`), or ``None`` when
        the vectorized kernel cannot serve this run (numpy absent or
        disabled, >64 unit bits, negative-cost units) — callers then
        use the scalar enumerator/check path, with identical results."""
        from .batch import BlockContext

        if not BlockContext.serves(self.cs, extra_names):
            return None
        return BlockContext(
            self,
            list(extra_names),
            include_empty,
            required,
            required_cost,
            use_possible_filter,
            prune_comm,
            use_estimation,
            charge=charge,
        )

    def block_outcomes(
        self, unit_sets, params, f_entry: float
    ) -> Optional[list]:
        """Vectorized batch evaluation for the parallel replay loop
        (one :class:`~repro.parallel.worker.CandidateOutcome` per unit
        set), or ``None`` when the kernel cannot run — the caller then
        evaluates the batch with the scalar per-candidate pipeline."""
        from .batch import batch_outcomes

        return batch_outcomes(self, unit_sets, params, f_entry)

    def possible(self, units: Iterable[str]) -> bool:
        """The possible-resource-allocation equation (BDD mask walk)."""
        mask, _usable = self._masks_of(units)
        return self.cs.possible(mask)

    def comm_pruned(self, units: Iterable[str]) -> bool:
        """True when the useless-communication rule drops the candidate."""
        mask, usable = self._masks_of(units)
        verdict = self.cs._comm_cache.get(usable)
        if verdict is None:
            verdict = self.cs._compute_comm_pruned(usable)
            self.cs._comm_cache[usable] = verdict
        return verdict

    def estimate(self, units: Iterable[str]) -> float:
        """The flexibility estimate (projection-cached mask walk)."""
        mask, _usable = self._masks_of(units)
        return self.cs.estimate(mask, self.weighted)

    def evaluate(
        self,
        units: Iterable[str],
        solver_counter: Optional[list] = None,
        detail: Optional[Dict[str, Any]] = None,
    ) -> Optional[Implementation]:
        """Construct the best implementation, mirroring
        :func:`repro.core.evaluation.evaluate_allocation` exactly."""
        unit_set = frozenset(units)
        mask, usable = self._masks_of(unit_set)
        cs = self.cs
        if not cs.supported(mask):
            return None
        allowed_mask = cs.activatable_mask(mask)
        if detail is not None:
            detail.setdefault("binding_seconds", 0.0)
            detail.setdefault("timing_seconds", 0.0)
            detail.setdefault("timing_checks", 0)
            detail.setdefault("timing_rejections", 0)
        acc = [0, 0, 0, 0, 0]
        # Per-candidate outcome table: the reference's selection-keyed
        # ``outcome_cache``; the solver counter charges once per
        # *distinct* selection per candidate, cache hit or not.
        outcome: Dict[int, Verdict] = {}

        sink = self.phase_sink
        observed = detail is not None or sink is not None

        def solve_selection(sel_mask: int) -> Verdict:
            cached = outcome.get(sel_mask)
            if cached is not None:
                return cached
            if solver_counter is not None:
                solver_counter[0] += 1
            info = cs.ecs_info(sel_mask)
            key = (sel_mask, usable & info.support)
            verdict = self._verdicts.get(key)
            if observed:
                t0 = time.perf_counter()
            if verdict is None:
                # ``computed`` is False on a warm-store hit: the replayed
                # timing_seconds then did not happen inside the elapsed
                # time and must not be subtracted from it.
                verdict, computed = self._memo_miss(info, usable, key)
            else:
                self.memo_hits += 1
                computed = False
            outcome[sel_mask] = verdict
            if not observed:
                return verdict
            binding_seconds = time.perf_counter() - t0 - (
                verdict.timing_seconds if computed else 0.0
            )
            if detail is None:
                sink.charge("binding", binding_seconds)
                if verdict.timing_checks:
                    sink.charge("timing", verdict.timing_seconds)
                return verdict
            detail["binding_seconds"] += binding_seconds
            detail["timing_seconds"] += verdict.timing_seconds
            detail["timing_checks"] += verdict.timing_checks
            detail["timing_rejections"] += verdict.timing_rejections
            deltas = verdict.deltas
            for i in range(5):
                acc[i] += deltas[i]
            return verdict

        covered_mask = 0
        coverage: list = []

        def try_cover(target: Optional[str]) -> bool:
            nonlocal covered_mask
            for sel_mask in cs.selection_masks(allowed_mask, target):
                verdict = solve_selection(sel_mask)
                if verdict.binding is not None:
                    covered_mask |= sel_mask
                    info = cs.ecs_info(sel_mask)
                    coverage.append(
                        EcsRecord(info.selection, verdict.binding)
                    )
                    return True
            return False

        def snapshot_solver_stats() -> None:
            if detail is not None:
                detail["solver"] = {
                    "invocations": acc[0],
                    "assignments": acc[1],
                    "backtracks": acc[2],
                    "solutions": acc[3],
                    "util_rejections": acc[4],
                }

        if not try_cover(None):
            snapshot_solver_stats()
            return None
        uncoverable_mask = 0
        cluster_bit = cs.cluster_bit
        for cluster_name in cs.sorted_cluster_names:
            bit = cluster_bit[cluster_name]
            if not allowed_mask & bit:
                continue
            if (covered_mask | uncoverable_mask) & bit:
                continue
            if not try_cover(cluster_name):
                uncoverable_mask |= bit

        achieved = cs.flex_value(covered_mask, self.weighted)
        snapshot_solver_stats()
        covered = frozenset(
            c for c in cs.cluster_names if covered_mask & cluster_bit[c]
        )
        return Implementation(
            unit_set,
            self.spec.units.total_cost(unit_set),
            achieved,
            covered,
            coverage,
        )

    def infeasibility_reason(self, units: Iterable[str]) -> str:
        """Audit-trail classification of an infeasible allocation."""
        if self.timing_mode == "none":
            return "infeasible_binding"
        relaxed = self._relaxed
        if relaxed is None:
            relaxed = self._relaxed = compiled_evaluator(
                self.spec,
                util_bound=self.util_bound,
                weighted=self.weighted,
                backend=self.backend,
                timing_mode="none",
            )
        relaxed.set_warm_store(self._warm_path)
        feasible = relaxed.evaluate(units) is not None
        return "timing_test" if feasible else "infeasible_binding"

    # ------------------------------------------------------------------
    # Warm-start store (persistent verdict memo; see :mod:`repro.store`)
    # ------------------------------------------------------------------
    def set_warm_store(self, path: Optional[str]) -> None:
        """Attach (``path``) or detach (``None``) the persistent store.

        Attaching binds this evaluator to the store namespace of its
        specification's structure; verdict memo misses then try a
        load-before-solve and write-behind on a compute.  Evaluators
        are interned per parameter set, so the attachment is set anew
        by every run (a run without ``warm_store`` runs detached).
        """
        if path == self._warm_path and (path is None) == (self._warm is None):
            return
        self._warm_path = path
        if path is None:
            self._warm = None
            return
        from ..store import open_store
        from ..store.digest import namespace_digest

        cspec = self.cs
        digest = getattr(cspec, "_warm_namespace", None)
        if digest is None:
            digest = namespace_digest(self.spec)
            cspec._warm_namespace = digest
        self._warm = open_store(path).binding(digest)

    def cache_counters(self) -> Dict[str, int]:
        """The memo/warm counters (cumulative over the process; runs
        snapshot before and charge the delta to their stats)."""
        return {
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "warm_hits": self.warm_hits,
            "warm_misses": self.warm_misses,
            "warm_writes": self.warm_writes,
            "warm_corruptions": self.warm_corruptions,
        }

    def _memo_miss(
        self, info: EcsInfo, usable: int, key: Tuple[int, int]
    ) -> Tuple[Verdict, bool]:
        """Resolve a verdict-memo miss: warm-store load or cold compute.

        Returns ``(verdict, computed)`` — ``computed`` is ``False``
        when the verdict was replayed from the store (its
        ``timing_seconds`` then did not elapse in this process).
        """
        self.memo_misses += 1
        warm = self._warm
        wkey = deps = None
        if warm is not None:
            from ..store.digest import key_digest

            wkey, deps = key_digest(self, info, usable)
            verdict = self._verdict_from_payload(warm.get(wkey))
            if verdict is not None:
                self.warm_hits += 1
                self._verdicts[key] = verdict
                return verdict, False
            self.warm_misses += 1
        verdict = self._compute_verdict(info, usable)
        self._verdicts[key] = verdict
        if warm is not None:
            warm.put(wkey, deps, self._verdict_to_payload(verdict))
            self.warm_writes += 1
        return verdict, True

    @staticmethod
    def _verdict_to_payload(verdict: Verdict) -> Dict[str, Any]:
        return {
            "b": verdict.binding,
            "d": list(verdict.deltas),
            "tc": verdict.timing_checks,
            "tr": verdict.timing_rejections,
            "ts": verdict.timing_seconds,
        }

    def _verdict_from_payload(self, payload: Any) -> Optional[Verdict]:
        """Rebuild a verdict from its stored payload; malformed data is
        counted as a corruption and degrades to a cold compute."""
        if payload is None:
            return None
        try:
            binding = payload["b"]
            deltas = payload["d"]
            if binding is not None and not (
                isinstance(binding, dict)
                and all(
                    isinstance(k, str) and isinstance(v, str)
                    for k, v in binding.items()
                )
            ):
                raise TypeError("malformed binding")
            if not (
                isinstance(deltas, list)
                and len(deltas) == 5
                and all(isinstance(d, int) for d in deltas)
            ):
                raise TypeError("malformed deltas")
            return Verdict(
                binding,
                tuple(deltas),
                int(payload["tc"]),
                int(payload["tr"]),
                float(payload["ts"]),
            )
        except (KeyError, TypeError, ValueError):
            self.warm_corruptions += 1
            return None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _masks_of(self, units: Iterable[str]) -> Tuple[int, int]:
        if units is self._last_units:
            return self._last_masks
        cs = self.cs
        handoff = cs._enum_memo
        if handoff is not None and handoff[0] is units:
            mask = handoff[1]
        else:
            mask = cs.mask_of(units)
        usable = cs.usable_mask(mask)
        if isinstance(units, frozenset):
            self._last_units = units
            self._last_masks = (mask, usable)
        return mask, usable

    def _compute_verdict(self, info: EcsInfo, usable: int) -> Verdict:
        if self.backend == "sat" and self.timing_mode != "schedule":
            allocation = Allocation(self.spec, self.cs.names_of(usable))
            result = solve_binding_sat(
                self.spec,
                allocation,
                info.flat,
                self.util_bound,
                self.check_utilization,
            )
            return Verdict(
                result.as_dict() if result is not None else None,
                _ZERO_DELTAS,
                0,
                0,
                0.0,
            )
        plan = self._plan(info, usable)
        if self.timing_mode != "schedule":
            binding, deltas = self._search(plan, usable, 1)
            return Verdict(binding, deltas, 0, 0, 0.0)
        spec = self.spec
        flat = info.flat
        checks = 0
        timing_seconds = 0.0

        def accept(assignment: Dict[str, str]) -> bool:
            nonlocal checks, timing_seconds
            t0 = time.perf_counter()
            ok = schedule_meets_periods(spec, flat, assignment)
            timing_seconds += time.perf_counter() - t0
            checks += 1
            return ok

        binding, deltas = self._search(
            plan, usable, SCHEDULE_SEARCH_LIMIT, accept
        )
        rejections = checks - (binding is not None)
        return Verdict(binding, deltas, checks, rejections, timing_seconds)

    def _plan(self, info: EcsInfo, usable: int) -> SearchPlan:
        """The interned search plan of ``info`` under ``usable``.

        Keyed by ``(ecs_mask, usable & ecs.owners)``: the domain filter
        reads only option-owner bits, and the order and earlier-neighbour
        positions are functions of the domains, so every usable mask
        with the same owner projection gets the same plan."""
        key = (info.mask, usable & info.owners)
        plan = self._plans.get(key)
        if plan is not None:
            return plan
        template = self._templates.get(info.mask)
        if template is None:
            template = self._templates[info.mask] = self._template(info)
        domains = []
        for options in template.entries:
            domain = [e for e in options if usable >> e[1] & 1]
            if not domain:
                self._plans[key] = _EMPTY_DOMAIN
                return _EMPTY_DOMAIN
            domains.append(domain)
        leaves = info.leaves
        # Leaf names are unique, so the index never breaks a tie.
        order = tuple(
            index
            for _size, _leaf, index in sorted(
                zip(map(len, domains), leaves, range(len(leaves)))
            )
        )
        rank = [0] * len(order)
        for p, index in enumerate(order):
            rank[index] = p
        neighbors = info.neighbors
        plan = SearchPlan(
            tuple(tuple(domains[index]) for index in order),
            order,
            tuple(leaves[index] for index in order),
            tuple(
                tuple([rank[j] for j in neighbors[index] if rank[j] < p])
                for p, index in enumerate(order)
            ),
            template.n_slots,
            template.n_ifaces,
        )
        self._plans[key] = plan
        return plan

    def _template(self, info: EcsInfo) -> EcsTemplate:
        """The plan template of ``info``: each option as the entry
        ``(resource, owner_bit, owner_top, iface, increment, slot)``.
        ``increment`` is ``None`` when the utilisation test does not
        apply; ``slot`` and ``iface`` are ECS-local indices of the
        resource and of the owner's architecture interface (``-1``:
        none), so the search keeps its state in small lists."""
        check_util = self.check_utilization
        slots: Dict[str, int] = {}
        ifaces: Dict[int, int] = {-1: -1}
        entries = []
        for recs in info.options:
            row = []
            for rec in recs:
                slot = slots.setdefault(rec.resource, len(slots))
                iface = ifaces.setdefault(rec.iface_id, len(ifaces) - 1)
                row.append(
                    (
                        rec.resource,
                        rec.owner_bit,
                        rec.owner_top,
                        iface,
                        rec.util_increment
                        if check_util and rec.loaded
                        else None,
                        slot,
                    )
                )
            entries.append(tuple(row))
        return EcsTemplate(tuple(entries), len(slots), len(ifaces) - 1)

    def _search(
        self,
        plan: SearchPlan,
        usable: int,
        limit: int,
        accept: Optional[Callable[[Dict[str, str]], bool]] = None,
    ) -> Tuple[Optional[Dict[str, str]], Tuple[int, int, int, int, int]]:
        """Decision-for-decision replay of
        :meth:`repro.binding.BindingSolver.iter_solutions` over a search
        plan, as one iterative depth-first search.

        Each complete assignment is offered to ``accept`` (``None``
        accepts the first); the search stops at the first accepted one
        or after ``limit`` offers.  Returns ``(binding, deltas)``:
        the accepted assignment (process -> resource, in search order)
        or ``None``, and the five :class:`~repro.binding.SolverStats`
        deltas the reference accumulates when its generator is consumed
        the same way and then abandoned — so a stop at the limit
        charges no backtracks for the frames it unwinds."""
        if plan is _EMPTY_DOMAIN:
            return None, (1, 0, 0, 0, 0)
        domains, _order, leaves, earlier, n_slots, n_ifaces = plan
        n = len(domains)
        util_bound = self.util_bound + 1e-12
        reach = self.cs.reach_table(usable)
        utilization = [0.0] * n_slots
        interface_choice = [-1] * n_ifaces
        interface_count = [0] * n_ifaces
        #: Per position: the chosen option, its top node, and the
        #: iterator over the rest of its domain (resumed on a step back).
        picked: list = [None] * n
        tops = [0] * n
        scans: list = [None] * n
        assignments = backtracks = solutions = rejections = 0
        binding: Optional[Dict[str, str]] = None
        pos = 0
        scan = iter(domains[0]) if n else None
        while True:
            if pos < n:
                for option in scan:
                    _resource, bit, top, iface, increment, slot = option
                    assignments += 1
                    if iface >= 0:
                        current = interface_choice[iface]
                        if current >= 0 and current != bit:
                            continue
                    if increment is not None and (
                        utilization[slot] + increment > util_bound
                    ):
                        rejections += 1
                        continue
                    # Same owner unit implies same top node, so only
                    # neighbours on another top need a route.
                    for q in earlier[pos]:
                        other = tops[q]
                        if other != top and not reach[top] >> other & 1:
                            break
                    else:
                        break  # every check passed: take ``option``
                else:
                    option = None  # domain exhausted
                if option is not None:
                    picked[pos] = option
                    tops[pos] = top
                    scans[pos] = scan
                    if increment:
                        utilization[slot] += increment
                    if iface >= 0:
                        interface_choice[iface] = bit
                        interface_count[iface] += 1
                    pos += 1
                    if pos < n:
                        scan = iter(domains[pos])
                    continue
                backtracks += 1
            else:
                solutions += 1
                offered = {leaves[k]: picked[k][0] for k in range(n)}
                if accept is None or accept(offered):
                    binding = offered
                    break
                if solutions >= limit:
                    break
            # Step back: undo the last position and resume its scan.
            if pos == 0:
                break
            pos -= 1
            _resource, _bit, _top, iface, increment, slot = picked[pos]
            if increment:
                utilization[slot] -= increment
            if iface >= 0:
                interface_count[iface] -= 1
                if not interface_count[iface]:
                    interface_choice[iface] = -1
            scan = scans[pos]
        return binding, (1, assignments, backtracks, solutions, rejections)


def compiled_evaluator(
    spec,
    *,
    util_bound: float = PAPER_UTILIZATION_BOUND,
    check_utilization: bool = True,
    weighted: bool = False,
    backend: str = "csp",
    timing_mode: Optional[str] = None,
    warm_store: Optional[str] = None,
):
    """The shared compiled evaluator for one parameter set.

    Evaluators (and their verdict caches) are interned on the
    specification's :class:`CompiledSpec`, so every run, resume and
    service slice with the same parameters reuses the accumulated
    cross-candidate state.

    ``warm_store`` — directory of a persistent verdict store
    (:mod:`repro.store`); every construction call (re)sets the
    attachment, so a run without it runs detached even on an interned
    evaluator a previous run attached.
    """
    from . import compiled_spec_for

    if timing_mode is None:
        timing_mode = "utilization" if check_utilization else "none"
    cspec = compiled_spec_for(spec)
    key = (util_bound, weighted, backend, timing_mode)
    evaluator = cspec._evaluators.get(key)
    if evaluator is None:
        evaluator = CompiledEvaluator(
            cspec,
            util_bound=util_bound,
            weighted=weighted,
            backend=backend,
            timing_mode=timing_mode,
        )
        cspec._evaluators[key] = evaluator
    evaluator.set_warm_store(warm_store)
    return evaluator

"""The EXPLORE branch-and-bound design-space exploration (Section 4).

Candidates (resource allocations) are inspected in order of increasing
allocation cost; the possible-resource-allocation boolean equation and
the flexibility estimate prune the search; the NP-complete binding
solver is invoked only for candidates whose estimated flexibility
exceeds the best implemented flexibility so far.  Exploration stops as
soon as the implemented flexibility reaches the global upper bound
(nothing more flexible can exist at any cost).

The published pseudocode contains a garbled guard (``WHILE f < f_cur``);
per the surrounding prose — "we are only interested in design points
with a greater flexibility than already implemented" — the intended
semantics implemented here is: attempt an implementation when the
*estimate* exceeds the best implemented flexibility, and record it when
the *achieved* flexibility does.

Every incumbent-dependent decision — the stops, the prunes, incumbent
and tie recording, the final dominance pass — lives in
:class:`repro.core.explore_core.ExploreCore`; this module's serial loop
only supplies each candidate's answers, computed on demand by the
engine evaluator or read from the block-vectorized kernel.  The
parallel batched explorer (:mod:`repro.parallel`), selected through
``explore(parallel=...)``, runs the same core over worker-computed
outcomes in the serial candidate order, so pruning decisions,
statistics and tie-breaking are identical by construction.
"""

from __future__ import annotations

import logging
import time
from typing import Any, Optional

from ..errors import ExplorationError
from ..spec import SpecificationGraph
from .evaluation import ENGINES, charge_cache_counters
from .explore_core import EvaluatorAnswers, ExploreCore
# prepare_exploration is re-exported: drivers and tests import it here.
from .options import ExplorationSetup, ExploreOptions, prepare_exploration
from .progress import ProgressEmitter
from .result import ExplorationResult

logger = logging.getLogger(__name__)

#: Accepted values of ``explore(parallel=...)``.
PARALLEL_MODES = ("serial", "thread", "process")


def warm_store_path(warm_store) -> Optional[str]:
    """Normalise ``explore(warm_store=...)`` to a directory path.

    Accepts ``None``, a directory path, or a
    :class:`repro.store.WarmStore` (its root is used); anything else
    raises :class:`ExplorationError`.
    """
    if warm_store is None:
        return None
    root = getattr(warm_store, "root", warm_store)
    if not isinstance(root, str) or not root:
        raise ExplorationError(
            f"warm_store must be a store directory path or a "
            f"repro.store.WarmStore, got {warm_store!r}"
        )
    return root


def validate_explore_options(
    backend: str,
    timing_mode: Optional[str],
    parallel: str = "serial",
    batch_size: Optional[int] = None,
    *,
    deadline_seconds: Optional[float] = None,
    max_evaluations: Optional[int] = None,
    checkpoint_every: Optional[int] = None,
    batch_timeout: Optional[float] = None,
    engine: Optional[str] = None,
) -> None:
    """Reject unknown modes/backends with a clear :class:`ExplorationError`.

    The ``backend``/``timing_mode`` checks are the record's
    (:meth:`ExploreOptions.validate`); the rest cover the execution
    settings.  Exploration fails fast, before any work.
    """
    ExploreOptions(backend=backend, timing_mode=timing_mode).validate()
    if parallel not in PARALLEL_MODES:
        raise ExplorationError(
            f"unknown parallel mode {parallel!r}; "
            f"expected one of {PARALLEL_MODES}"
        )
    if batch_size is not None and batch_size < 1:
        raise ExplorationError(
            f"batch_size must be a positive integer, got {batch_size!r}"
        )
    if deadline_seconds is not None and deadline_seconds < 0:
        raise ExplorationError(
            f"deadline_seconds must be >= 0, got {deadline_seconds!r}"
        )
    if max_evaluations is not None and max_evaluations < 0:
        raise ExplorationError(
            f"max_evaluations must be >= 0, got {max_evaluations!r}"
        )
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ExplorationError(
            f"checkpoint_every must be a positive integer, "
            f"got {checkpoint_every!r}"
        )
    if batch_timeout is not None and batch_timeout <= 0:
        raise ExplorationError(
            f"batch_timeout must be > 0 seconds, got {batch_timeout!r}"
        )
    if engine is not None and engine not in ENGINES:
        raise ExplorationError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )


def _charged_enumeration(stream, charge):
    """Yield from ``stream``, charging each pull's wall-clock to the
    ``enumerate`` phase (:meth:`ExploreCore.charge`).  Pure
    observation on the wall-clock channel — ``phase_totals`` records
    are excluded from trace fingerprints."""
    iterator = iter(stream)
    clock = time.perf_counter
    end = object()
    while True:
        t0 = clock()
        item = next(iterator, end)
        charge("enumerate", clock() - t0)
        if item is end:
            return
        yield item


def _scalar_candidates(evaluator, setup: ExplorationSetup, core):
    """The engine enumerator's ``(cost, units, answers)`` stream, each
    candidate's pre-filter answers computed on demand."""
    required = setup.required
    stream = evaluator.enumerator(
        setup.extra_names, include_empty=bool(required)
    )
    if core.sinks:
        stream = _charged_enumeration(stream, core.charge)
    # One answers view, re-pointed at each candidate: the core reads it
    # before the next candidate is pulled.
    answers = EvaluatorAnswers(evaluator, None, core.charge)
    for extra_cost, extras in stream:
        # Preserve the enumerator's frozenset identity when nothing is
        # required — the compiled engine keys its units->mask handoff
        # memo on it (a union would copy and defeat the memo).
        answers.units = required | extras if required else extras
        yield setup.required_cost + extra_cost, answers.units, answers


def _evaluate(evaluator, units, core: ExploreCore):
    """Evaluate one candidate: the :meth:`ExploreCore.record` arguments
    after ``(cost, units)``.  Observed runs also collect the solver's
    phase breakdown (``detail``)."""
    counter = [0]
    detail = {} if core.sinks else None
    t0 = time.perf_counter()
    implementation = evaluator.evaluate(
        units, solver_counter=counter, detail=detail
    )
    t1 = time.perf_counter()
    core.charge("evaluate", t1 - t0)
    if detail is not None:
        core.charge("binding", detail.get("binding_seconds", 0.0))
        if detail.get("timing_checks"):
            core.charge("timing", detail["timing_seconds"])
    return implementation, counter[0], t0, t1, detail


def explore(
    spec: SpecificationGraph,
    options: Optional[ExploreOptions] = None,
    parallel: str = "serial",
    batch_size: Optional[int] = None,
    workers: Optional[int] = None,
    deadline_seconds: Optional[float] = None,
    max_evaluations: Optional[int] = None,
    checkpoint: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
    batch_timeout: Optional[float] = None,
    retry=None,
    progress=None,
    progress_every: Optional[int] = None,
    tracer=None,
    engine: Optional[str] = None,
    shard=None,
    warm_store=None,
    telemetry=None,
    **fields: Any,
) -> ExplorationResult:
    """Find all Pareto-optimal (cost, flexibility) implementations.

    Parameters
    ----------
    spec:
        A frozen specification graph.
    options / fields:
        The result-affecting options: an
        :class:`~repro.core.options.ExploreOptions` record and/or its
        fields as keywords (``util_bound``, ``max_cost``,
        ``keep_ties=True``, ...; keywords override the record).  The
        defaults are the paper's configuration; the record documents
        every field.  An unknown ``backend`` or ``timing_mode`` raises
        :class:`ExplorationError`.
    parallel:
        ``"serial"`` (default) runs the classic in-process loop;
        ``"thread"`` / ``"process"`` evaluate candidates in cost-ordered
        batches on a worker pool and reduce them deterministically — the
        returned Pareto set, statistics and tie-breaking are identical
        to the serial loop (see :mod:`repro.parallel` and
        ``docs/parallel.md``).
    batch_size:
        Candidates per dispatched batch in parallel modes (default
        :data:`repro.parallel.BATCH_SIZE_DEFAULT`); ignored when
        ``parallel="serial"``.
    workers:
        Worker-pool size in parallel modes (default: the CPU count);
        ignored when ``parallel="serial"``.
    deadline_seconds / max_evaluations:
        Anytime budgets (see ``docs/resilience.md``): stop gracefully at
        a candidate boundary when the wall-clock deadline passes or the
        budget of full candidate evaluations is spent, returning the
        best-so-far front with ``completed=False`` and an explicit
        :class:`~repro.core.result.OptimalityGap`.  Unlike
        ``max_cost``/``max_candidates`` (which silently bound the search
        *space*), a budget-truncated result always says it is truncated
        and bounds what was left on the table.
    checkpoint / checkpoint_every:
        Journal evaluated outcomes and fsync'd replay snapshots (every
        ``checkpoint_every`` candidates) to ``checkpoint``;
        :func:`repro.resilience.resume_explore` continues a killed run
        to an identical result.
    batch_timeout:
        Seconds a dispatched parallel batch may take before the pool
        results are abandoned and the batch is finished inline.
    retry:
        A :class:`repro.resilience.RetryPolicy` governing transient
        worker-pool failures (default: 3 attempts with exponential
        backoff and jitter).
    progress / progress_every:
        Structured observation seam (see :mod:`repro.core.progress`):
        ``progress`` is called with plain-dictionary lifecycle events
        (``explore_start``, ``incumbent``, ``explore_end``, and — every
        ``progress_every`` enumerated candidates — ``progress``).  The
        event sequence is identical for serial and batched runs of the
        same exploration; the CLI and the exploration service
        (:mod:`repro.service`) both consume this seam.
    tracer:
        An optional :class:`repro.trace.Tracer` collecting deterministic
        span/audit records of the search (see ``docs/observability.md``).
        Like progress events, trace records are emitted at replay
        positions with no wall-clock in fingerprint-relevant fields, so
        serial, batched and service runs of the same exploration produce
        byte-identical logical traces.  ``None`` (the default) disables
        tracing with zero behaviour change.
    engine:
        Candidate-evaluation engine: ``"compiled"`` (default — the
        bitmask kernel of :mod:`repro.compiled` with cross-candidate
        memoization) or ``"reference"`` (the classic per-candidate
        pipeline).  Both produce identical fronts, statistics, progress
        events and logical traces — the compiled engine is
        differentially tested against the reference on every corpus —
        so this is purely a performance/debugging escape hatch (see
        ``docs/performance.md``).
    shard:
        A :class:`repro.distributed.Shard`: restrict the run to the
        candidates one member of a disjoint, exhaustive partition owns
        (in global enumeration order).  Shard runs are building blocks
        of distributed exploration — their merge reproduces the
        whole-space result byte-for-byte; see :mod:`repro.distributed`
        and ``docs/distributed.md``.  Incompatible with
        ``max_candidates``.
    warm_store:
        Directory of a persistent warm-start verdict store (or a
        :class:`repro.store.WarmStore`): the compiled kernel's binding
        verdicts are loaded before solving and written behind on
        misses, so repeated runs — across processes and across latency
        or cost edits of the specification — skip re-solving
        sub-problems whose content-addressed inputs are unchanged.
        Results are byte-identical with and without the store (and
        after arbitrary edit chains — differentially tested); the
        warm/cold split is reported in ``stats.cache_dict()``.  See
        :mod:`repro.store`, ``docs/performance.md`` and
        ``docs/formats.md``.
    telemetry:
        An optional :class:`repro.telemetry.Telemetry` bundle (or bare
        :class:`repro.telemetry.PhaseProfiler`) accumulating wall-clock
        phase histograms on the same seam the tracer's ``phase_totals``
        ride.  Telemetry is strictly wall-clock-side observation: the
        result, progress events and logical trace fingerprints are
        byte-identical with it on or off (differentially tested).  Not
        journaled by checkpoints — like ``progress`` and ``tracer`` it
        is a per-session observation seam.  See
        ``docs/observability.md``.

    Returns an :class:`~repro.core.result.ExplorationResult` whose
    ``points`` are the Pareto-optimal implementations in increasing cost
    order.  Without ``keep_ties``, cost ties with equal flexibility are
    resolved in favour of the first candidate in the deterministic
    enumeration order.
    """
    options = (options or ExploreOptions()).override(**fields)
    validate_explore_options(
        options.backend,
        options.timing_mode,
        parallel,
        batch_size,
        deadline_seconds=deadline_seconds,
        max_evaluations=max_evaluations,
        checkpoint_every=checkpoint_every,
        batch_timeout=batch_timeout,
        engine=engine,
    )
    warm_path = warm_store_path(warm_store)
    emitter = ProgressEmitter(progress, progress_every)
    resilient = (
        deadline_seconds is not None
        or max_evaluations is not None
        or checkpoint is not None
        or batch_timeout is not None
        or retry is not None
        or shard is not None
    )
    if parallel != "serial" or resilient:
        # The resilience features live in the batched replay loop, which
        # reproduces this serial loop exactly (differentially tested) —
        # parallel="serial" there means inline execution, no pool.
        from ..parallel import explore_batched

        return explore_batched(
            spec,
            options,
            parallel=parallel,
            batch_size=batch_size,
            workers=workers,
            deadline_seconds=deadline_seconds,
            max_evaluations=max_evaluations,
            checkpoint=checkpoint,
            checkpoint_every=checkpoint_every,
            batch_timeout=batch_timeout,
            retry=retry,
            progress=progress,
            progress_every=progress_every,
            tracer=tracer,
            engine=engine,
            shard=shard,
            warm_store=warm_path,
            telemetry=telemetry,
        )

    evaluator, setup, stats, core, cache_base = options.prepare(
        spec,
        engine,
        warm_path,
        emitter=emitter,
        tracer=tracer,
        # Telemetry rides the tracer's phase seam (duck-typed: Telemetry
        # and PhaseProfiler both expose ``.profiler``); kept import-free
        # so the core never depends on repro.telemetry.
        profiler=getattr(telemetry, "profiler", None),
    )
    required = setup.required
    started = time.perf_counter()
    f_max = setup.f_max
    core.start(stats.design_space_size)
    logger.info(
        "explore start: spec=%s design_space=%d f_max=%g serial",
        spec.name,
        stats.design_space_size,
        f_max,
    )

    # Batch-vectorized block kernel (repro.compiled.batch): when the
    # engine offers it and numpy is available, candidate enumeration
    # and the incumbent-independent pre-filters run over uint64 blocks.
    # With no per-candidate observers the whole walk runs blocked
    # (run_fast); otherwise the loop below reads each candidate's
    # answers from the block arrays.  Results are byte-identical either
    # way (differentially tested).
    block_factory = getattr(evaluator, "block_context", None)
    block = None
    if block_factory is not None:
        block = block_factory(
            setup.extra_names,
            bool(required),
            required,
            setup.required_cost,
            use_possible_filter=options.use_possible_filter,
            prune_comm=options.prune_comm,
            use_estimation=options.use_estimation,
            charge=core.charge,
        )
    if (
        block is not None
        and tracer is None
        and not emitter.active
        and not options.keep_ties
        and options.max_candidates is None
    ):
        block.run_fast(core)
        stream = ()
    elif block is not None:
        stream = block.candidates()
    else:
        stream = _scalar_candidates(evaluator, setup, core)

    for cost, units, answers in stream:
        if core.halts(cost) or not core.admit(cost):
            break
        if core.screen(cost, units, answers):
            core.record(cost, units, *_evaluate(evaluator, units, core))

    points = core.finish()
    charge_cache_counters(stats, evaluator, cache_base)
    stats.elapsed_seconds = time.perf_counter() - started
    logger.info(
        "explore end: spec=%s candidates=%d evaluations=%d points=%d "
        "elapsed=%.3fs",
        spec.name,
        stats.candidates_enumerated,
        stats.estimate_exceeded,
        len(points),
        stats.elapsed_seconds,
    )
    return ExplorationResult(points, stats, f_max)

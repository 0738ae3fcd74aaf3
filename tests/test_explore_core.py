"""Unit tests of the EXPLORE decision core over hand-built candidates.

:class:`repro.core.explore_core.ExploreCore` makes every
incumbent-dependent decision for all exploration drivers, so its corner
cases are pinned here directly — each candidate is a hand-built
``(cost, units, answers, implementation)`` tuple fed through the same
protocol the drivers use — rather than only through end-to-end
differentials between drivers that now share it.
"""

from repro.core.explore_core import (
    EvaluatorAnswers,
    ExploreCore,
    PrefilterAnswers,
)
from repro.core.progress import ProgressEmitter
from repro.core.result import ExplorationStats, Implementation
from repro.trace import Tracer


def answers(estimate, possible=True, comm_pruned=False):
    return PrefilterAnswers(possible, comm_pruned, estimate)


def impl(cost, flexibility, *units):
    return Implementation(frozenset(units), cost, flexibility, (), [])


def make_core(f_max=10.0, events=None, **options):
    tracer = Tracer(level="audit")
    core = ExploreCore(
        ExplorationStats(),
        f_max,
        infeasibility_reason=lambda units: "infeasible_binding",
        emitter=ProgressEmitter(events.append if events is not None else None),
        tracer=tracer,
        **options,
    )
    core.start(64)
    return core, tracer


def walk(core, candidates):
    """The driver protocol over ``(cost, units, answers, implementation,
    solver_calls)`` candidates; returns how many were admitted."""
    admitted = 0
    for cost, units, candidate_answers, implementation, calls in candidates:
        units = frozenset(units)
        if core.halts(cost) or not core.admit(cost):
            break
        admitted += 1
        if core.screen(cost, units, candidate_answers):
            core.record(cost, units, implementation, calls)
    return admitted


def prunes(tracer):
    return [
        (r["reason"], r["cost"], tuple(r["units"]))
        for r in tracer.records
        if r["type"] == "prune"
    ]


def stops(tracer):
    return [r["reason"] for r in tracer.records if r["type"] == "stop"]


def test_prefilter_prunes_and_their_statistics():
    core, tracer = make_core()
    walk(
        core,
        [
            (1.0, "a", answers(0.0, possible=False), None, 0),
            (2.0, "b", answers(0.0, comm_pruned=True), None, 0),
            (3.0, "c", answers(0.0), None, 0),
            (4.0, "d", answers(5.0), None, 2),
        ],
    )
    assert prunes(tracer) == [
        ("impossible_allocation", 1.0, ("a",)),
        ("useless_comm", 2.0, ("b",)),
        ("estimate_below_incumbent", 3.0, ("c",)),
        ("infeasible_binding", 4.0, ("d",)),
    ]
    stats = core.stats
    assert stats.candidates_enumerated == 4
    assert stats.possible_allocations == 3
    assert stats.pruned_comm == 1
    assert stats.estimates_computed == 2
    assert stats.estimate_exceeded == 1
    assert stats.solver_invocations == 2
    assert stats.feasible_implementations == 0
    assert core.points == [] and core.f_cur == 0.0


def test_disabled_checks_are_never_read():
    """With a check switched off its answer is not consulted (on-demand
    answers would otherwise pay for it) and its counter stays zero."""

    class Unreadable:
        @property
        def possible(self):
            raise AssertionError("possible read with the filter off")

        @property
        def comm_pruned(self):
            raise AssertionError("comm_pruned read with pruning off")

        @property
        def estimate(self):
            raise AssertionError("estimate read with estimation off")

    core, _ = make_core(
        use_possible_filter=False, prune_comm=False, use_estimation=False
    )
    walk(core, [(1.0, "a", Unreadable(), impl(1.0, 1.0, "a"), 1)])
    stats = core.stats
    assert (stats.possible_allocations, stats.pruned_comm) == (0, 0)
    assert stats.estimates_computed == 0
    assert stats.estimate_exceeded == 1
    assert core.estimate is None
    assert [p.point for p in core.points] == [(1.0, 1.0)]


def test_evaluator_answers_compute_on_demand():
    """EvaluatorAnswers asks the evaluator only for the checks the core
    reaches and charges estimate wall-clock to its callback."""
    asked = []
    charged = []

    class Evaluator:
        def possible(self, units):
            asked.append("possible")
            return True

        def comm_pruned(self, units):
            asked.append("comm_pruned")
            return True

        def estimate(self, units):
            asked.append("estimate")
            return 1.0

    core, _ = make_core()
    pruned = EvaluatorAnswers(Evaluator(), frozenset("a"))
    assert not core.screen(1.0, frozenset("a"), pruned)
    assert asked == ["possible", "comm_pruned"]
    on_demand = EvaluatorAnswers(
        Evaluator(), frozenset("a"), lambda *phase: charged.append(phase)
    )
    assert on_demand.estimate == 1.0
    assert [phase for phase, _ in charged] == ["estimate"]


def test_same_cost_tie_appended_same_units_tie_not():
    core, tracer = make_core(keep_ties=True)
    walk(
        core,
        [
            (5.0, "ab", answers(3.0), impl(5.0, 3.0, "a", "b"), 1),
            (5.0, "ac", answers(3.0), impl(5.0, 3.0, "a", "c"), 1),
            # same units as the last point (a signature twin): no append
            (5.0, "ac", answers(3.0), impl(5.0, 3.0, "a", "c"), 1),
        ],
    )
    assert [sorted(p.units) for p in core.points] == [["a", "b"], ["a", "c"]]
    assert [r["type"] for r in tracer.records].count("incumbent") == 2
    assert prunes(tracer) == [("not_improving", 5.0, ("a", "c"))]
    assert core.stats.feasible_implementations == 3


def test_ties_dropped_without_keep_ties():
    core, tracer = make_core()
    walk(
        core,
        [
            (5.0, "ab", answers(3.0), impl(5.0, 3.0, "a", "b"), 1),
            (5.0, "ac", answers(3.0), impl(5.0, 3.0, "a", "c"), 1),
        ],
    )
    assert [sorted(p.units) for p in core.points] == [["a", "b"]]
    assert prunes(tracer) == [("estimate_below_incumbent", 5.0, ("a", "c"))]


def test_tie_higher_cost_pruned():
    core, tracer = make_core(keep_ties=True)
    walk(
        core,
        [
            (5.0, "ab", answers(3.0), impl(5.0, 3.0, "a", "b"), 1),
            (6.0, "ac", answers(3.0), impl(6.0, 3.0, "a", "c"), 1),
            (7.0, "ad", answers(2.0), None, 0),
        ],
    )
    assert prunes(tracer) == [
        ("tie_higher_cost", 6.0, ("a", "c")),
        ("estimate_below_incumbent", 7.0, ("a", "d")),
    ]
    assert core.stats.estimates_computed == 3
    assert core.stats.estimate_exceeded == 1


def test_f_max_stop_continues_through_equal_cost_band_with_ties():
    candidates = [
        (5.0, "ab", answers(4.0), impl(5.0, 4.0, "a", "b"), 1),
        (5.0, "ac", answers(4.0), impl(5.0, 4.0, "a", "c"), 1),
        (6.0, "ad", answers(4.0), impl(6.0, 4.0, "a", "d"), 1),
    ]
    core, tracer = make_core(f_max=4.0, keep_ties=True)
    assert walk(core, candidates) == 2
    assert [sorted(p.units) for p in core.points] == [["a", "b"], ["a", "c"]]
    assert stops(tracer) == ["flexibility_bound_reached"]
    stop = [r for r in tracer.records if r["type"] == "stop"][0]
    assert (stop["cost"], stop["candidates"]) == (6.0, 2)

    core, tracer = make_core(f_max=4.0)
    assert walk(core, candidates) == 1
    assert core.bound_reached
    assert stops(tracer) == ["flexibility_bound_reached"]


def test_max_cost_stop():
    core, tracer = make_core(max_cost=5.0)
    admitted = walk(
        core,
        [
            (5.0, "a", answers(1.0), impl(5.0, 1.0, "a"), 1),
            (5.5, "b", answers(2.0), impl(5.5, 2.0, "b"), 1),
        ],
    )
    assert admitted == 1
    assert stops(tracer) == ["cost_bound"]
    assert core.stats.candidates_enumerated == 1


def test_max_candidates_stop_counts_the_stopping_candidate():
    core, tracer = make_core(max_candidates=2)
    admitted = walk(
        core,
        [(float(i), "abc"[i], answers(0.0), None, 0) for i in range(3)],
    )
    assert admitted == 2
    assert stops(tracer) == ["max_candidates"]
    # the serial loop counts the candidate that trips the budget
    assert core.stats.candidates_enumerated == 3


def test_not_improving_recorded():
    core, tracer = make_core()
    walk(
        core,
        [
            (1.0, "a", answers(4.0), impl(1.0, 3.0, "a"), 1),
            (2.0, "b", answers(5.0), impl(2.0, 2.0, "b"), 2),
        ],
    )
    assert [p.point for p in core.points] == [(1.0, 3.0)]
    assert prunes(tracer) == [("not_improving", 2.0, ("b",))]
    record = [r for r in tracer.records if r["type"] == "prune"][0]
    assert (record["estimate"], record["achieved"], record["incumbent"]) == (
        5.0,
        2.0,
        3.0,
    )
    assert core.stats.solver_invocations == 3
    assert core.stats.feasible_implementations == 2


def test_finish_audits_dominated_points_and_emits_end_events():
    """A same-cost candidate later in the tie order with more
    flexibility dominates the earlier point; the final pass drops it."""
    events = []
    core, tracer = make_core(events=events)
    walk(
        core,
        [
            (5.0, "a", answers(4.0), impl(5.0, 2.0, "a"), 1),
            (5.0, "b", answers(4.0), impl(5.0, 3.0, "b"), 1),
        ],
    )
    front = core.finish()
    assert [p.point for p in front] == [(5.0, 3.0)]
    assert prunes(tracer) == [("dominated", 5.0, ("a",))]
    assert [e["kind"] for e in events] == [
        "explore_start",
        "incumbent",
        "incumbent",
        "explore_end",
    ]
    assert tracer.records[-1]["type"] == "explore_end"
    assert tracer.records[-1]["front"] == [[5.0, 3.0]]


def test_finish_suppresses_dominated_audit_on_unrecorded_truncation():
    """A preempted service slice (``record_truncation=False``) re-runs
    the final pass each slice and must not re-record dominated points."""

    class Gap:
        reason = "budget"

    core, tracer = make_core()
    tracer.record_truncation = False
    walk(
        core,
        [
            (5.0, "a", answers(4.0), impl(5.0, 2.0, "a"), 1),
            (5.0, "b", answers(4.0), impl(5.0, 3.0, "b"), 1),
        ],
    )
    assert [p.point for p in core.finish(Gap())] == [(5.0, 3.0)]
    assert prunes(tracer) == []
    assert tracer.records[-1]["type"] != "explore_end"


def test_progress_events_carry_replay_counters():
    events = []
    tracer = Tracer(level="spans")
    core = ExploreCore(
        ExplorationStats(),
        10.0,
        emitter=ProgressEmitter(events.append, 2),
        tracer=tracer,
    )
    core.start(8)
    walk(
        core,
        [
            (1.0, "a", answers(2.0), impl(1.0, 1.0, "a"), 1),
            (2.0, "b", answers(1.0), None, 0),
            (3.0, "c", answers(3.0), impl(3.0, 3.0, "c"), 1),
        ],
    )
    progress = [e for e in events if e["kind"] == "progress"]
    assert progress == [
        {
            "kind": "progress",
            "candidates": 2,
            "evaluations": 1,
            "feasible": 1,
            "flexibility": 1.0,
        }
    ]
    incumbents = [e for e in events if e["kind"] == "incumbent"]
    assert [(e["candidates"], e["evaluations"]) for e in incumbents] == [
        (1, 1),
        (3, 2),
    ]

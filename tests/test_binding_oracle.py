"""The compiled evaluator's binding searches against the reference solver.

:class:`repro.compiled.CompiledEvaluator` answers binding questions from
shared search plans and a cross-candidate verdict memo, and claims that
every candidate still reports exactly what a fresh
:class:`repro.binding.BindingSolver` run by
:func:`repro.core.evaluation.evaluate_allocation` records: the same five
solver counters (invocations, assignments, backtracks, solutions,
utilisation rejections) and the same coverage — every feasible
elementary cluster-activation with its first binding, key order
included.  These tests check that claim candidate by candidate, on both
case studies and the 30-seed random corpus, under every CSP timing
mode, once in enumeration order and once shuffled so that plans and
verdicts are reused across unrelated candidates.
"""

import random

import pytest

from .randspec import random_spec
from repro.casestudies import build_automotive_spec, build_settop_spec
from repro.compiled import compiled_evaluator
from repro.core.evaluation import evaluate_allocation

SEEDS = list(range(30))
TIMING_MODES = ("utilization", "none", "schedule")

#: Settop has ~98k possible allocations; a seeded sample keeps the
#: reference runs short while still spanning the whole cost range.
SETTOP_SAMPLE = 300


def corpus():
    """``(name, fresh spec factory)`` for every spec under test."""
    yield "settop", build_settop_spec
    yield "automotive", build_automotive_spec
    for seed in SEEDS:
        yield f"rand{seed}", lambda seed=seed: random_spec(seed)


def candidates(spec, name):
    """Possible allocations of ``spec`` in enumeration (cost) order."""
    evaluator = compiled_evaluator(spec)
    found = [
        units
        for _cost, units in evaluator.enumerator()
        if evaluator.possible(units)
    ]
    if name == "settop":
        rng = random.Random(0)
        picked = set(rng.sample(range(len(found)), SETTOP_SAMPLE))
        found = [u for i, u in enumerate(found) if i in picked]
    return found


def outcome(implementation, detail):
    coverage = None
    if implementation is not None:
        coverage = [
            (list(record.selection.items()), list(record.binding.items()))
            for record in implementation.coverage
        ]
    return detail["solver"], coverage


def check_corpus(timing_mode, order):
    """Compare every candidate of the corpus; return how many."""
    checked = 0
    reused = False
    for name, build in corpus():
        # A fresh specification per pass: its memo and plans start cold
        # and fill in this pass's candidate order.
        spec = build()
        units_list = candidates(spec, name)
        if order == "shuffled":
            random.Random(name).shuffle(units_list)
        evaluator = compiled_evaluator(spec, timing_mode=timing_mode)
        for units in units_list:
            detail = {}
            implementation = evaluator.evaluate(units, detail=detail)
            expected_detail = {}
            expected = evaluate_allocation(
                spec, units, timing_mode=timing_mode, detail=expected_detail
            )
            assert outcome(implementation, detail) == outcome(
                expected, expected_detail
            ), (name, timing_mode, sorted(units))
            checked += 1
        if evaluator.memo_hits and len(evaluator._plans) < (
            evaluator.memo_misses
        ):
            reused = True
    # The pass exercised the caches it is meant to check.
    assert reused
    return checked


@pytest.mark.parametrize("order", ["enumeration", "shuffled"])
@pytest.mark.parametrize("timing_mode", TIMING_MODES)
def test_compiled_search_matches_reference_solver(timing_mode, order):
    assert check_corpus(timing_mode, order) > 1000


def test_schedule_search_limit_matches_reference_solver(monkeypatch):
    """A search that stops at ``SCHEDULE_SEARCH_LIMIT`` rejected
    bindings abandons its open frames without charging backtracks; the
    corpus never reaches the real limit, so lower it in both engines."""
    import repro.compiled.evaluator as compiled_module
    import repro.core.evaluation as reference_module

    monkeypatch.setattr(reference_module, "SCHEDULE_SEARCH_LIMIT", 1)
    monkeypatch.setattr(compiled_module, "SCHEDULE_SEARCH_LIMIT", 1)
    assert check_corpus("schedule", "shuffled") > 1000

"""Parallel batched EXPLORE (deterministically equal to the serial loop).

Candidate evaluation in the EXPLORE branch-and-bound — the
possible-allocation filter, the flexibility estimate, the NP-complete
binding solve and the timing test — is embarrassingly parallel within a
cost band: none of it depends on the incumbent flexibility bound except
the *decision* whether a candidate is worth implementing.  This package
splits each candidate into

* an incumbent-independent stage (filter, comm pruning, estimation,
  speculative full evaluation) that is fanned out to a worker pool in
  cost-ordered batches, and
* an incumbent-dependent *replay* stage that reduces the batch results
  in the deterministic serial candidate order against the shared
  incumbent bound.

Because speculative evaluation is triggered exactly for the superset of
candidates the serial loop could possibly implement (the incumbent is
monotone non-decreasing), the replay reproduces the serial loop's
pruning decisions, statistics, Pareto set and tie-breaking *bit for
bit* — see :mod:`repro.parallel.batched` for the invariant and
``tests/test_parallel_explore.py`` for the differential proof.

Evaluation outcomes are memoised across batches in an
:class:`EvaluationCache` keyed on the canonical allocation signature
(:func:`canonical_signature`): allocations that differ only in unusable
units — nested units whose enclosing clusters are not allocated —
evaluate identically, so repeated effective sub-allocations across cost
bands are solved once.
"""

from ..core.explorer import PARALLEL_MODES
from .batched import BATCH_SIZE_DEFAULT, explore_batched
from .cache import EvaluationCache, outcome_checksum, outcome_token
from .pool import POOL_KINDS, WorkerPool
from .signature import canonical_signature
from .worker import CandidateOutcome, evaluate_candidate

__all__ = [
    "BATCH_SIZE_DEFAULT",
    "CandidateOutcome",
    "EvaluationCache",
    "PARALLEL_MODES",
    "POOL_KINDS",
    "WorkerPool",
    "canonical_signature",
    "evaluate_candidate",
    "explore_batched",
    "outcome_checksum",
    "outcome_token",
]

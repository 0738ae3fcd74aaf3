"""The compiled candidate-evaluation kernel (``explore(engine="compiled")``).

This package compiles a frozen specification once into bit-level
tables (:class:`CompiledSpec`), then evaluates candidates over masks
with cross-candidate memoization keyed by relevance projections
(:class:`CompiledEvaluator`).  When numpy is importable the optional
block-vectorized layer (:mod:`repro.compiled.batch`) additionally runs
enumeration and the cheap checks as uint64 bit-plane kernels over
thousands of candidates per call (:func:`active_numpy` says whether it
is on; ``REPRO_VECTORIZE=0`` forces it off).  It is the default
engine; the reference pipeline remains available as
``engine="reference"`` and the two are differentially tested to
produce identical fronts, statistics, progress events and logical
traces.  See ``docs/performance.md``.
"""

from __future__ import annotations

from .batch import BlockKernel, active_numpy, numpy_version
from .enumerate import MaskAllocationEnumerator
from .evaluator import CompiledEvaluator, Verdict, compiled_evaluator
from .spec import CompiledSpec, EcsInfo, OptionRec


def compiled_spec_for(spec) -> CompiledSpec:
    """The interned :class:`CompiledSpec` of a frozen specification.

    It is held on the specification itself (``spec._compiled``).  The
    compiled tables refer back to the specification, so the pair is one
    reference cycle that the garbage collector reclaims once the
    specification is dropped — with every evaluator, verdict memo and
    search plan hanging off it.  Nothing here is ever pickled
    (process-pool workers rebuild their own in the initializer).
    """
    compiled = getattr(spec, "_compiled", None)
    if compiled is None:
        compiled = spec._compiled = CompiledSpec(spec)
    return compiled


__all__ = [
    "BlockKernel",
    "CompiledEvaluator",
    "CompiledSpec",
    "EcsInfo",
    "MaskAllocationEnumerator",
    "OptionRec",
    "Verdict",
    "active_numpy",
    "compiled_evaluator",
    "compiled_spec_for",
    "numpy_version",
]

"""Metric definitions, summaries and host facts.

``BENCHMARK.json`` lists the metrics by name; this module says what each
one means, and for every per-layer metric which end-to-end metric it
should move and on which workload (the prediction a later change is
judged against).  ``selftest.py`` checks that the two agree.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
from typing import Dict, List, Sequence

WORKLOADS = ("cold_explore", "service_mix", "edit_chain", "sharded_remote")
ALL = "all"

#: name -> (unit, better, what it is).  ``failed_frac`` is not among
#: them: the result line carries it as ``failed`` / ``attempted``.
END_TO_END = {
    "latency_p50_s": ("s", "lower", "median request time"),
    "latency_tail_s": (
        "s", "lower",
        "request time at the workload's fixed tail percentile",
    ),
    "throughput_rps": (
        "1/s", "higher",
        "requests per second of request time (service_mix: jobs per "
        "second to drain the burst)",
    ),
    "cands_per_s": (
        "1/s", "higher",
        "candidates enumerated (stats) per second of exploration time",
    ),
    "setup_s": (
        "s", "lower",
        "fresh process to first request ready, median of the probes",
    ),
    "peak_rss_mb": (
        "MiB", "lower",
        "peak resident memory of the benchmark process plus each shard "
        "worker",
    ),
}

#: name -> (unit, better, measured at, moves, workloads).
PER_LAYER = {
    "io.spec_load_s": ("s", "lower", "spec_from_dict",
                       "setup_s, latency_p50_s", ALL),
    "io.result_dump_s": ("s", "lower", "result_to_dict",
                         "setup_s, latency_p50_s", ALL),
    "compiled.compile_s": ("s", "lower", "compiled_spec_for",
                           "setup_s, latency_p50_s",
                           "cold_explore, edit_chain"),
    "compiled.evaluate_s": ("s", "lower", "CompiledEvaluator.evaluate",
                            "latency_*, cands_per_s", "cold_explore"),
    "compiled.evaluate_calls": ("count", "lower",
                                "CompiledEvaluator.evaluate",
                                "latency_*, cands_per_s", "cold_explore"),
    "compiled.verdict_misses": ("count", "lower", "stats.memo_misses",
                                "latency_*", "cold_explore"),
    "compiled.memo_hit_ratio": ("ratio", "higher",
                                "stats.cache_dict() memo hits/lookups",
                                "latency_*", "cold_explore"),
    "compiled.solver_invocations": ("count", "lower",
                                    "stats.solver_invocations",
                                    "latency_*", "cold_explore"),
    "compiled.scalar_ratio": ("ratio", "higher",
                              "fresh spec under REPRO_VECTORIZE=0 / default",
                              "cands_per_s", "cold_explore"),
    "core.enumerate_s": ("s", "lower", "PhaseProfiler enumerate",
                         "cands_per_s", "cold_explore"),
    "core.filter_s": ("s", "lower", "PhaseProfiler filter",
                      "cands_per_s", "cold_explore"),
    "core.estimate_s": ("s", "lower", "PhaseProfiler estimate",
                        "cands_per_s", "cold_explore"),
    "core.pareto_s": ("s", "lower", "PhaseProfiler pareto",
                      "cands_per_s", "cold_explore"),
    "core.dispatch_s": ("s", "lower", "PhaseProfiler dispatch",
                        "cands_per_s", "service_mix"),
    "core.unaccounted_s": ("s", "lower",
                           "wall time the accounted layers leave over",
                           "(residual)", ALL),
    "core.useful_ratio": ("ratio", "higher",
                          "feasible_implementations / solver_invocations",
                          "latency_*", "cold_explore"),
    "parallel.batched_s": ("s", "lower", "explore_batched self time",
                           "latency_*, throughput_rps", "service_mix"),
    "resilience.resume_s": ("s", "lower", "resume_explore",
                            "latency_*, throughput_rps", "service_mix"),
    "resilience.checkpoint_load_s": ("s", "lower", "load_checkpoint",
                                     "latency_*, throughput_rps",
                                     "service_mix"),
    "resilience.checkpoints_written": ("count", "lower",
                                       "stats.checkpoints_written",
                                       "latency_*, throughput_rps",
                                       "service_mix"),
    "resilience.journal_bytes": ("bytes", "lower",
                                 "checkpoint journals on disk",
                                 "latency_*, throughput_rps",
                                 "service_mix"),
    "service.queue_wait_s": ("s", "lower", "repro_wait_seconds sum",
                             "latency_*, throughput_rps", "service_mix"),
    "service.slice_s": ("s", "lower", "repro_slice_seconds sum",
                        "latency_*, throughput_rps", "service_mix"),
    "service.slices": ("count", "lower", "repro_slices_total",
                       "latency_*, throughput_rps", "service_mix"),
    "service.preemptions": ("count", "lower", "repro_preemptions_total",
                            "latency_*, throughput_rps", "service_mix"),
    "service.overhead_ratio": ("ratio", "lower",
                               "job runtime / solo cold explore",
                               "latency_*, throughput_rps", "service_mix"),
    "store.diff_s": ("s", "lower", "diff_specs", "latency_*", "edit_chain"),
    "store.invalidate_s": ("s", "lower", "invalidate", "latency_*",
                           "edit_chain"),
    "store.warm_hit_ratio": ("ratio", "higher",
                             "store counters: hits / lookups",
                             "latency_*", "edit_chain"),
    "store.warm_writes": ("count", "lower", "store counters: writes",
                          "latency_*", "edit_chain, service_mix"),
    "store.bytes": ("bytes", "lower", "warm store directory size",
                    "latency_*", "edit_chain, service_mix"),
    "store.warm_ratio": ("ratio", "lower",
                         "warm re-explore / store-off cold explore",
                         "latency_*", "edit_chain"),
    "distributed.partition_s": ("s", "lower", "make_partition",
                                "latency_*", "sharded_remote"),
    "distributed.shard_s_max": ("s", "lower",
                                "ShardOutcome.elapsed_seconds, slowest",
                                "latency_*", "sharded_remote"),
    "distributed.shard_s_sum": ("s", "lower",
                                "ShardOutcome.elapsed_seconds, all",
                                "latency_*", "sharded_remote"),
    "distributed.merge_s": ("s", "lower", "ShardedExploration.merge_seconds",
                            "latency_*", "sharded_remote"),
    "distributed.heartbeats": ("count", "lower", "ShardOutcome.heartbeats",
                               "latency_*", "sharded_remote"),
    "distributed.attempts": ("count", "lower", "ShardOutcome.attempts",
                             "latency_*", "sharded_remote"),
    "distributed.worker_rss_mb": ("MiB", "lower",
                                  "ShardOutcome.resources rss_max_bytes",
                                  "peak_rss_mb", "sharded_remote"),
    "distributed.overhead_ratio": ("ratio", "lower",
                                   "sharded request / solo cold explore",
                                   "latency_*", "sharded_remote"),
    "bench.gen_late_s": ("s", "lower", "open-loop generator lateness (max)",
                         "(bench health)", "service_mix"),
    "bench.tracing_overhead": ("ratio", "lower",
                               "traced pass / untraced pass",
                               "(bench health)", ALL),
}


def percentile(values: Sequence[float], percent: float) -> float:
    """Nearest-rank percentile (a measured sample, never interpolated)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_summary(latencies: List[float], tail_percent: int) -> Dict:
    tail = percentile(latencies, tail_percent)
    return {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "tail_percent": tail_percent,
        "samples": len(latencies),
        "beyond_tail": sum(1 for v in latencies if v > tail),
    }


def peak_rss_mb() -> float:
    import resource

    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_facts() -> Dict:
    """Facts about the host, for reporting only."""
    from repro.compiled import active_numpy, numpy_version

    try:
        load = os.getloadavg()
    except OSError:
        load = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "active_numpy": active_numpy() is not None,
        "loadavg": list(load) if load else None,
    }

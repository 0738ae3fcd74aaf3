"""Cold, ship-path benchmark of the EXPLORE program.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_explore --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in
the program; ``--trace 1`` is the separate traced run that reports the
per-layer metrics.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
a report with host facts, sample counts and any failure messages.
Exits 2 without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Fresh-process set-ups per untraced run; ``setup_s`` is their median.
SETUP_PROBES = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="EXPLORE benchmark")
    parser.add_argument("--workload", required=True, choices=(
        "cold_explore", "service_mix", "edit_chain", "sharded_remote"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--passes", type=int, default=None,
        help="send exactly this many passes (the self-test's short runs)")
    return parser.parse_args(argv)


def measure_setup(workload: str, workdir: str, speed) -> list:
    """(started, seconds) from spawning each fresh probe process to its
    ``ready``, with a host-speed sample before each."""
    from perfbench.inputs import base_document
    from perfbench.workers import program_env
    from perfbench.workloads import first_document_key

    spec_path = os.path.join(workdir, "first-spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(base_document(first_document_key(workload)), handle)
    probes = []
    for i in range(SETUP_PROBES):
        speed.sample()
        probe_dir = os.path.join(workdir, f"setup-{i}")
        os.makedirs(probe_dir)
        started = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "setup_probe.py"),
             workload, spec_path, probe_dir],
            env=program_env(), stdout=subprocess.PIPE, text=True,
        )
        try:
            line = process.stdout.readline()
            elapsed = time.perf_counter() - started
            if line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed: {line!r}")
            process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
        probes.append((started, elapsed))
    speed.sample()
    return probes


def end_to_end(out, setup, speed, tail: int) -> tuple:
    """The end-to-end metrics as measured, and at nominal host speed
    (see calibrate.py): every request time, set-up probe and the burst
    drain divided by the host speed factor around it.  Returns (raw,
    nominal, report fields)."""
    from perfbench.metrics import latency_summary

    def summarise(scale) -> tuple:
        latencies = [r.latency / scale(r.started, r.latency)
                     for r in out.timed]
        summary = latency_summary(latencies, tail)
        explore = sum(r.explored / scale(r.started, r.latency)
                      for r in out.requests)
        if out.burst is not None:
            jobs, start, span = out.burst
            throughput = jobs / (span / scale(start, span))
        else:
            # One client: requests per second of request time.
            throughput = len(latencies) / sum(latencies)
        setup_s = statistics.median(s / scale(t, s) for t, s in setup)
        return {
            "latency_p50_s": summary["latency_p50_s"],
            "latency_tail_s": summary["latency_tail_s"],
            "throughput_rps": throughput,
            "cands_per_s": out.candidates / explore,
            "setup_s": setup_s,
            "peak_rss_mb": out.peak_rss_mb,
        }, summary

    raw, summary = summarise(lambda start, seconds: 1.0)
    nominal, _ = summarise(
        lambda start, seconds: speed.factor(start, start + seconds))
    fields = {key: summary[key]
              for key in ("tail_percent", "samples", "beyond_tail")}
    return raw, nominal, fields


def result_line(args, out, values) -> dict:
    from perfbench.metrics import END_TO_END, PER_LAYER

    table = PER_LAYER if args.trace else END_TO_END
    return {
        "correct": not out.failures,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": table[name][0]}
            for name in table
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    try:
        # The program under test, imported as far as a set-up probe
        # imports it (repro.compiled brings numpy), so the timed
        # requests do not pay for the import.
        import repro.compiled  # noqa: F401
        from perfbench import workloads
        from perfbench.metrics import host_facts
    except ImportError as error:
        print(f"error: cannot import the program from "
              f"{os.path.join(ROOT, 'src')}: {error}", file=sys.stderr)
        return 2

    facts = {"start": host_facts()}
    workdir = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ctx = workloads.Context(
            args.workload, args.seed, args.seconds, bool(args.trace),
            workdir, passes=args.passes)
        setup = [] if args.trace else measure_setup(
            args.workload, workdir, ctx.speed)
        out = workloads.run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    facts["end"] = host_facts()
    if args.trace:
        values = out.layer
    else:
        raw, nominal, fields = end_to_end(
            out, setup, ctx.speed, ctx.plan["tail"])
        values = nominal if ctx.plan["scaled"] else raw
        out.report.update(raw_metrics=raw, nominal_metrics=nominal,
                          scaled=ctx.plan["scaled"], **fields)
    line = result_line(args, out, values)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": facts,
        "setup_samples_s": [s for _, s in setup],
        "speed_factor": ctx.speed.factor(),
        "speed_samples": len(ctx.speed.samples),
        "failed_frac": out.failed / max(1, out.attempted),
        "failures": out.failures[:20],
        **out.report,
    }
    print(json.dumps(report, sort_keys=True, default=str))
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's own self-test.

Runs every workload briefly (one pass, untraced and traced) and checks
that each metric ``BENCHMARK.json`` names is emitted with its unit, that
no request failed, that ``BENCHMARK.json`` agrees with ``metrics.py``,
that the oracle table matches the current spec generator, and that the
benchmark refuses to run without the program's sources.

Usage (from the repository root): ``python3 perfbench/selftest.py``
Exits 0 when every check passes.  Takes about three minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, trace: int, cwd: str = ROOT):
    process = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--passes", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return process


def check_result(benchmark, workload, trace, process, problems) -> None:
    where = f"{workload} --trace {trace}"
    if process.returncode != 0:
        problems.append(f"{where}: exit {process.returncode}: "
                        f"{process.stderr[-400:]}")
        return
    lines = process.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or not result["attempted"]:
        report = json.loads(lines[-2])
        problems.append(f"{where}: failed_frac {report['failed_frac']}: "
                        f"{report['failures'][:3]}")
    wanted = benchmark["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for entry in wanted:
        got = metrics.get(entry["name"])
        if got is None or got.get("unit") != entry["unit"]:
            problems.append(f"{where}: {entry['name']} missing or unit "
                            f"{got and got.get('unit')} != {entry['unit']}")
        elif not isinstance(got.get("value"), float):
            problems.append(f"{where}: {entry['name']} value not a number")


def check_tables(benchmark, problems) -> None:
    from perfbench.metrics import END_TO_END, PER_LAYER, WORKLOADS

    for key, table in (("end_to_end", END_TO_END),
                       ("per_layer", PER_LAYER)):
        listed = {m["name"]: m for m in benchmark[key]}
        if sorted(listed) != sorted(table):
            problems.append(f"{key}: BENCHMARK.json and metrics.py list "
                            f"different metrics")
        for name, entry in listed.items():
            if name in table and (entry["unit"], entry["better"]) != \
                    tuple(table[name][:2]):
                problems.append(f"{key}: {name} unit/better disagree")
    if [w["name"] for w in benchmark["workloads"]] != list(WORKLOADS):
        problems.append("workload names disagree with metrics.py")


def check_oracles(problems) -> None:
    from perfbench.inputs import base_document, digest
    from perfbench.oracle import TABLE_PATH
    from perfbench.workloads import table_keys

    with open(TABLE_PATH, "r", encoding="utf-8") as handle:
        table = json.load(handle)
    for key in table_keys():
        entry = table.get(key)
        if entry is None or entry["digest"] != digest(base_document(key)):
            problems.append(f"oracles.json: {key} missing or stale; "
                            f"rebuild with python3 -m perfbench.oracle "
                            f"--rebuild")


def check_bare(problems) -> None:
    """Without the program's sources the benchmark must exit non-zero
    and print no result."""
    bare = os.path.join(ROOT, ".perfbench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        process = run("cold_explore", 0, cwd=bare)
        if process.returncode == 0 or process.stdout.strip():
            problems.append("bare checkout: benchmark did not refuse")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.metrics import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        benchmark = json.load(handle)
    problems: list = []
    check_tables(benchmark, problems)
    check_oracles(problems)
    check_bare(problems)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_result(benchmark, workload, trace,
                         run(workload, trace), problems)
            print(f"{workload} --trace {trace}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("ok" if not problems else
                          f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

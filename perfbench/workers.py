"""Start and stop ``repro shard-worker`` processes (standard library
only, so the set-up probe can use it without importing more)."""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def program_env() -> dict:
    """The environment a child process needs to import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get(
        "PYTHONPATH", "")
    return env


def spawn_workers(workdir: str, count: int = 2):
    """Start ``count`` shard workers; returns (processes, addresses)
    once every worker listens."""
    processes = []
    addresses = []
    try:
        for i in range(count):
            processes.append(subprocess.Popen(
                [sys.executable, "-m", "repro", "shard-worker",
                 os.path.join(workdir, f"worker-{i}")],
                env=program_env(), stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True,
            ))
        for process in processes:
            line = process.stdout.readline()
            if "listening on" not in line:
                raise RuntimeError(f"shard worker did not start: {line!r}")
            addresses.append(line.split()[-1])
    except BaseException:
        stop_workers(processes)
        raise
    return processes, addresses


def stop_workers(processes) -> None:
    """Terminate the workers and wait until each has exited."""
    for process in processes:
        if process.poll() is None:
            process.terminate()
    for process in processes:
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()

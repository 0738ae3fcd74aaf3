"""One set-up, in a fresh process: import the program, load the first
spec document and compile it, and build what the workload serves from
(the service, the warm store, or two listening shard workers).  Prints
``ready`` when the first request could be sent, then tears down.

Usage: python3 perfbench/setup_probe.py WORKLOAD SPEC_JSON WORKDIR
"""

import os
import sys


def main(workload: str, spec_path: str, workdir: str) -> int:
    from repro.compiled import compiled_spec_for
    from repro.io import load_spec

    compiled_spec_for(load_spec(spec_path))
    teardown = None
    if workload == "service_mix":
        from repro.service import ExplorationService

        service = ExplorationService(os.path.join(workdir, "service"))
        teardown = service.close
    elif workload == "edit_chain":
        from repro.store import open_store

        open_store(os.path.join(workdir, "store"))
    elif workload == "sharded_remote":
        sys.path.insert(0, os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        from perfbench.workers import spawn_workers, stop_workers

        processes, _ = spawn_workers(workdir)

        def teardown():
            stop_workers(processes)
    print("ready", flush=True)
    if teardown is not None:
        teardown()
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))

"""Independent oracle fronts for every request, computed off the clock.

Sources, in the order the repository trusts them:

* ``golden`` — the paper's Set-Top front pinned in ``tests/golden``;
* ``exhaustive`` — :func:`repro.core.exhaustive.exhaustive_front`, every
  unit subset, for specs of at most ``EXHAUSTIVE_MAX_UNITS`` units;
* ``reference`` — ``explore(engine="reference")``, the classic
  per-candidate pipeline the compiled kernel is differentially tested
  against, for larger specs.

A front is the list of ``(cost, flexibility)`` pairs.  Fronts of the
fixed base documents are slow to recompute (12 units take about 7 s
exhaustively), so ``oracles.json`` keeps them with the digest of the
document they were computed from; a digest that no longer matches (the
generator changed) falls back to computing the oracle live.  Rebuild the
table with::

    PYTHONPATH=src python3 -m perfbench.oracle --rebuild
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TABLE_PATH = os.path.join(HERE, "oracles.json")
GOLDEN_SETTOP = os.path.join(ROOT, "tests", "golden", "settop_front.json")
EXHAUSTIVE_MAX_UNITS = 12

Front = List[Tuple[float, float]]


def front_of(result) -> Front:
    """The (cost, flexibility) front of an ExplorationResult."""
    return [(float(c), float(f)) for c, f in result.front()]


def _golden_settop() -> Front:
    with open(GOLDEN_SETTOP, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    return [
        (float(p["cost"]), float(p["flexibility"]))
        for p in document["points"]
    ]


def compute(key: str, document: Dict[str, Any]) -> Tuple[str, Front]:
    """(source, front) for one base document, computed now."""
    from repro.core.exhaustive import exhaustive_front
    from repro.core.explorer import explore
    from repro.io.json_io import spec_from_dict

    if key == "settop":
        return "golden", _golden_settop()
    spec = spec_from_dict(document)
    if len(list(spec.units.names())) <= EXHAUSTIVE_MAX_UNITS:
        points = exhaustive_front(spec)
        return "exhaustive", [
            (float(p.cost), float(p.flexibility)) for p in points
        ]
    return "reference", front_of(explore(spec, engine="reference"))


class Oracles:
    """Oracle fronts by key, computed at most once a run.

    A key names one front for the whole run: a base document, or an
    edit-chain position (whose salted per-pass copies share a front).
    """

    def __init__(self) -> None:
        self._table: Dict[str, Any] = {}
        if os.path.exists(TABLE_PATH):
            with open(TABLE_PATH, "r", encoding="utf-8") as handle:
                self._table = json.load(handle)
        self._fronts: Dict[str, Front] = {}
        self.computed_live = 0

    def front(self, key: str, document: Dict[str, Any]) -> Front:
        from .inputs import digest

        if key not in self._fronts:
            entry = self._table.get(key)
            if entry is not None and entry.get("digest") == digest(document):
                front = [tuple(point) for point in entry["front"]]
            else:
                front = compute(key, document)[1]
                self.computed_live += 1
            self._fronts[key] = front
        return self._fronts[key]


def rebuild(keys) -> Dict[str, Any]:
    from .inputs import base_document, digest

    table = {}
    for key in keys:
        document = base_document(key)
        source, front = compute(key, document)
        table[key] = {
            "digest": digest(document),
            "source": source,
            "front": [list(point) for point in front],
        }
        print(f"{key}: {source} {front}", file=sys.stderr)
    return table


def main() -> int:
    import argparse

    from .workloads import table_keys

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rebuild", action="store_true", required=True)
    parser.parse_args()
    table = rebuild(table_keys())
    with open(TABLE_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

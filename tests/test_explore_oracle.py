"""Every EXPLORE driver against an independent oracle.

The serial loop, the block-vectorized serial loop, the batched replay
and the shard merge all run one decision core
(:class:`repro.core.explore_core.ExploreCore`), so differentials
between them can no longer catch a mistake in that core.  These tests
compare each driver with :func:`repro.core.exhaustive.exhaustive_front`,
which evaluates every allocation and shares no pruning code with
EXPLORE, over the 30-seed random corpus — with ``keep_ties`` off
(Pareto points) and on (every tied unit set of every Pareto point).
"""

import pytest

from .randspec import random_spec
from repro.core import exhaustive_front, explore
from repro.distributed import explore_sharded
from repro.parallel import explore_batched

SEEDS = list(range(30))


def serial(spec, keep_ties, tmp_path):
    return explore(spec, keep_ties=keep_ties)


def batched(batch_size):
    def run(spec, keep_ties, tmp_path):
        return explore_batched(
            spec,
            parallel="serial",
            batch_size=batch_size,
            keep_ties=keep_ties,
        )

    return run


def sharded(spec, keep_ties, tmp_path):
    workdir = tmp_path / spec.name
    return explore_sharded(
        spec,
        shards=2,
        mode="inline",
        workdir=str(workdir),
        keep_ties=keep_ties,
    ).result


DRIVERS = {
    "serial": serial,
    # the same call, with the block kernel's size floor lifted (below)
    "serial_block": serial,
    "batched_1": batched(1),
    "batched_8": batched(8),
    "sharded_2": sharded,
}


def front_of(implementations, keep_ties):
    """Pareto points, or (point, unit set) pairs when ties are kept."""
    if keep_ties:
        return sorted(
            (i.point, tuple(sorted(i.units))) for i in implementations
        )
    return [i.point for i in implementations]


@pytest.mark.parametrize("keep_ties", [False, True])
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_driver_matches_exhaustive_oracle(
    driver, keep_ties, tmp_path, monkeypatch
):
    if driver == "serial_block":
        # Corpus specs sit below the block kernel's size floor; lifting
        # it runs the vectorized candidate source (scalar without numpy).
        monkeypatch.setenv("REPRO_VECTORIZE_MIN_BITS", "0")
    run = DRIVERS[driver]
    for seed in SEEDS:
        spec = random_spec(seed)
        result = run(spec, keep_ties, tmp_path)
        assert result.completed
        oracle = exhaustive_front(spec, keep_ties=keep_ties)
        expected = front_of(oracle, keep_ties)
        assert front_of(result.points, keep_ties) == expected, (
            f"seed {seed}: {driver} (keep_ties={keep_ties}) disagrees "
            f"with the exhaustive oracle"
        )


def test_oracle_corpus_exercises_ties():
    """Guard against vacuity: some corpus spec has a Pareto point with
    more than one implementing unit set."""
    assert any(
        len(exhaustive_front(random_spec(seed), keep_ties=True))
        > len(exhaustive_front(random_spec(seed)))
        for seed in SEEDS
    )

"""The ExploreOptions record: one declaration of EXPLORE's result options.

Every persisted or compared form of the options — the checkpoint
header, resume's frozen set, the shard manifest, service submissions
and shard-worker run requests — is derived from the record's field
list.  :data:`ALTERNATIVES` names a non-default value for every field,
and the walks below check each path field by field, so a field added
to the record later cannot drift out of any of them.
"""

import json
import os

import pytest

from repro.casestudies import build_settop_spec
from repro.core import ExploreOptions
from repro.distributed import explore_sharded, make_partition
from repro.distributed.worker import run_request
from repro.errors import CheckpointError, ExplorationError
from repro.io.json_io import spec_to_dict
from repro.parallel import explore_batched
from repro.resilience import load_checkpoint, resume_explore
from repro.service import ExplorationService

#: A valid, non-default value for every field.
ALTERNATIVES = {
    "util_bound": 0.5,
    "max_cost": 200.0,
    "max_candidates": 5,
    "use_possible_filter": False,
    "use_estimation": False,
    "prune_comm": False,
    "check_utilization": False,
    "weighted": True,
    "backend": "sat",
    "keep_ties": True,
    "timing_mode": "schedule",
    "require_units": ("muP2",),
    "forbid_units": ("A1",),
}

FIELDS = ExploreOptions._fields


@pytest.fixture(scope="module")
def settop():
    return build_settop_spec()


@pytest.fixture(scope="module")
def journal(settop, tmp_path_factory):
    """A finished default-options checkpoint journal."""
    path = str(tmp_path_factory.mktemp("journal") / "run.ckpt")
    explore_batched(settop, parallel="serial", checkpoint=path)
    return path


@pytest.fixture(scope="module")
def workdir(settop, tmp_path_factory):
    """A finished default-options sharded workdir."""
    directory = str(tmp_path_factory.mktemp("shards"))
    explore_sharded(settop, shards=2, mode="inline", workdir=directory)
    return directory


def test_alternatives_cover_every_field():
    assert set(ALTERNATIVES) == set(FIELDS)
    defaults = ExploreOptions()
    for name, value in ALTERNATIVES.items():
        assert getattr(defaults, name) != value, name


class TestRecord:
    def test_unit_iterables_normalise(self):
        a = ExploreOptions.of(require_units={"muP2", "A1"})
        b = ExploreOptions.of(require_units=["A1", "muP2"])
        assert a == b
        assert a.require_units == ("A1", "muP2")
        assert ExploreOptions.of(forbid_units=None).forbid_units is None

    def test_json_round_trip(self):
        options = ExploreOptions().override(**ALTERNATIVES)
        document = json.loads(json.dumps(options.to_dict()))
        assert ExploreOptions.from_dict(document) == options

    def test_partial_documents_take_defaults(self):
        options = ExploreOptions.from_dict({"keep_ties": True, "engine": "x"})
        assert options == ExploreOptions(keep_ties=True)

    def test_to_dict_of_named_fields_only(self):
        options = ExploreOptions.of(max_cost=5, require_units={"b", "a"})
        assert options.to_dict(["require_units", "engine"]) == {
            "require_units": ["a", "b"]
        }
        assert options.to_dict([]) == {}

    def test_split_separates_execution_settings(self):
        options, rest = ExploreOptions.split(
            {"keep_ties": True, "engine": "compiled", "parallel": "serial"}
        )
        assert options == ExploreOptions(keep_ties=True)
        assert rest == {"engine": "compiled", "parallel": "serial"}

    def test_changed_names_differing_fields(self):
        a = ExploreOptions()
        b = a.override(keep_ties=True, max_cost=10)
        assert a.changed(b) == ["max_cost", "keep_ties"]
        assert a.changed(a) == []

    def test_unknown_field_is_a_type_error(self):
        with pytest.raises(TypeError):
            ExploreOptions.of(engine="compiled")

    @pytest.mark.parametrize("field", ["backend", "timing_mode"])
    def test_validate_rejects_unknown_values(self, field):
        with pytest.raises(ExplorationError, match=field):
            ExploreOptions.of(**{field: "bogus"}).validate()

    def test_header_params_are_the_fields_plus_execution(self, journal):
        from repro.resilience.checkpoint import _EXECUTION_PARAMS

        params = load_checkpoint(journal).params
        assert set(params) == set(FIELDS) | set(_EXECUTION_PARAMS)


@pytest.mark.parametrize("field", FIELDS)
class TestEveryField:
    def test_round_trips_through_the_checkpoint_header(
        self, settop, field, tmp_path
    ):
        path = str(tmp_path / "run.ckpt")
        explore_batched(
            settop, parallel="serial", checkpoint=path, max_evaluations=0,
            **{field: ALTERNATIVES[field]},
        )
        restored = ExploreOptions.from_dict(load_checkpoint(path).params)
        assert getattr(restored, field) == ALTERNATIVES[field]
        assert restored.changed(ExploreOptions()) == [field]

    def test_resume_refuses_a_change(self, journal, field):
        with pytest.raises(CheckpointError, match=field):
            resume_explore(journal, **{field: ALTERNATIVES[field]})

    def test_sharded_rerun_refuses_a_change(self, settop, workdir, field):
        # max_candidates is refused before the manifest is consulted.
        error = (
            ExplorationError if field == "max_candidates" else CheckpointError
        )
        with pytest.raises(error, match=field):
            explore_sharded(
                settop, shards=2, mode="inline", workdir=workdir,
                **{field: ALTERNATIVES[field]},
            )

    def test_service_submit_accepts_it(self, settop, field, tmp_path):
        service = ExplorationService(str(tmp_path / "svc"))
        try:
            job = service.submit(
                settop, options={field: ALTERNATIVES[field]}
            )
        finally:
            service.close()
        expected = ExploreOptions().override(**{field: ALTERNATIVES[field]})
        assert ExploreOptions.from_dict(job.options) == expected

    def test_worker_run_request_accepts_it(self, settop, field, tmp_path):
        directory = str(tmp_path / "worker")
        os.makedirs(directory)
        payload = {
            "job": "shard-000",
            "spec": spec_to_dict(settop),
            "shard": make_partition(settop, 1, "band")[0].to_dict(),
            "options": {
                field: ALTERNATIVES[field], "max_evaluations": 0,
            },
        }
        if field == "max_candidates":
            # Positions differ per shard: a typed refusal, not a
            # protocol error.
            with pytest.raises(ExplorationError, match=field):
                run_request(directory, payload)
            return
        reply = run_request(directory, payload)
        assert not reply["resumed"]
        restored = ExploreOptions.from_dict(load_checkpoint(
            os.path.join(directory, "shard-000.checkpoint")
        ).params)
        assert getattr(restored, field) == ALTERNATIVES[field]

"""Unit tests for JSON serialization."""

import json

import pytest

from repro.core.schedule import Schedule
from repro.instances.io import (
    dump_instance,
    dump_schedule,
    dumps_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_schedule,
    loads_instance,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.util.errors import InvalidInstanceError


class TestInstanceIO:
    def test_roundtrip_dict(self, tiny_instance):
        again = instance_from_dict(instance_to_dict(tiny_instance))
        assert again.jobs == tiny_instance.jobs
        assert again.g == tiny_instance.g
        assert again.name == tiny_instance.name

    def test_roundtrip_file(self, tiny_instance, tmp_path):
        path = tmp_path / "inst.json"
        dump_instance(tiny_instance, path)
        assert load_instance(path).jobs == tiny_instance.jobs

    def test_roundtrip_string(self, medium_laminar):
        assert loads_instance(dumps_instance(medium_laminar)).jobs == (
            medium_laminar.jobs
        )

    def test_document_is_plain_json(self, tiny_instance):
        doc = json.loads(dumps_instance(tiny_instance))
        assert doc["version"] == 1
        assert doc["jobs"][0].keys() == {"id", "r", "d", "p"}

    def test_malformed_document_rejected(self):
        with pytest.raises(InvalidInstanceError):
            instance_from_dict({"jobs": [{"id": 0}], "g": 1})

    def test_invalid_job_data_rejected(self):
        with pytest.raises(InvalidInstanceError):
            instance_from_dict(
                {"g": 1, "jobs": [{"id": 0, "r": 0, "d": 1, "p": 5}]}
            )


class TestScheduleIO:
    def test_roundtrip(self, tiny_instance, tmp_path):
        sched = Schedule.from_assignment(
            tiny_instance, {0: [0, 2], 1: [0], 2: [2]}
        )
        path = tmp_path / "sched.json"
        dump_schedule(sched, path)
        again = load_schedule(path)
        assert again.assignment == sched.assignment
        assert again.instance.jobs == tiny_instance.jobs
        assert again.is_valid

    def test_dict_roundtrip_preserves_validity_verdict(self, tiny_instance):
        bad = Schedule.from_assignment(tiny_instance, {0: [0]})
        again = schedule_from_dict(schedule_to_dict(bad))
        assert not again.is_valid

    def test_loaded_slots_are_sorted_tuples(self, tiny_instance):
        doc = schedule_to_dict(
            Schedule.from_assignment(tiny_instance, {0: [0, 2], 1: [0], 2: [2]})
        )
        doc["assignment"]["0"] = [2, 0]
        loaded = schedule_from_dict(doc)
        assert loaded.assignment[0] == (0, 2)
        assert loaded == schedule_from_dict(schedule_to_dict(loaded))
        assert loaded.is_valid

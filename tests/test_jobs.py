"""Unit tests for the Job/Instance data model."""

import pytest

from repro.instances.jobs import Instance, Job
from repro.util.errors import InvalidInstanceError, NotLaminarError
from repro.util.intervals import Interval


class TestJob:
    def test_valid_job(self):
        j = Job(id=0, release=1, deadline=5, processing=3)
        assert j.window == Interval(1, 5)
        assert j.slack == 1

    def test_window_shorter_than_processing_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Job(id=0, release=0, deadline=2, processing=3)

    def test_zero_processing_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Job(id=0, release=0, deadline=2, processing=0)

    def test_non_integer_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Job(id=0, release=0.5, deadline=2, processing=1)  # type: ignore

    def test_with_window_shrinks(self):
        j = Job(id=3, release=0, deadline=10, processing=2)
        j2 = j.with_window(0, 2)
        assert j2.deadline == 2
        assert j2.id == 3 and j2.processing == 2

    def test_rigid_job_has_zero_slack(self):
        assert Job(id=0, release=2, deadline=5, processing=3).slack == 0


class TestInstance:
    def test_basic_shape(self, tiny_instance):
        assert tiny_instance.n == 3
        assert len(tiny_instance) == 3
        assert tiny_instance.total_volume == 4
        assert tiny_instance.horizon == Interval(0, 4)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Instance(
                jobs=(
                    Job(id=1, release=0, deadline=2, processing=1),
                    Job(id=1, release=0, deadline=3, processing=1),
                ),
                g=1,
            )

    def test_bad_capacity_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Instance(jobs=(), g=0)

    def test_windows_distinct_and_sorted(self):
        inst = Instance.from_triples([(0, 4, 1), (0, 4, 2), (1, 3, 1)], g=2)
        assert inst.windows == (Interval(0, 4), Interval(1, 3))

    def test_laminar_detection(self, tiny_instance, crossing_instance):
        assert tiny_instance.is_laminar
        assert not crossing_instance.is_laminar

    def test_require_laminar_raises_with_witness(self, crossing_instance):
        with pytest.raises(NotLaminarError) as err:
            crossing_instance.require_laminar()
        assert err.value.witness is not None

    def test_is_unit(self):
        assert Instance.from_triples([(0, 2, 1), (0, 3, 1)], g=1).is_unit
        assert not Instance.from_triples([(0, 2, 2)], g=1).is_unit

    def test_renumbered(self):
        inst = Instance(
            jobs=(Job(id=10, release=0, deadline=2, processing=1),), g=1
        )
        assert inst.renumbered().jobs[0].id == 0

    def test_from_triples_assigns_positional_ids(self):
        inst = Instance.from_triples([(0, 2, 1), (1, 3, 1)], g=1)
        assert [j.id for j in inst.jobs] == [0, 1]

    def test_horizon_of_empty_instance_raises(self):
        with pytest.raises(InvalidInstanceError):
            Instance(jobs=(), g=1).horizon

    def test_describe_mentions_shape(self, tiny_instance):
        text = tiny_instance.describe()
        assert "n=3" in text and "g=2" in text and "laminar" in text

    def test_with_jobs_keeps_g(self, tiny_instance):
        inst = tiny_instance.with_jobs(tiny_instance.jobs[:1])
        assert inst.g == tiny_instance.g and inst.n == 1

    def test_immutability(self, tiny_instance):
        with pytest.raises(Exception):
            tiny_instance.g = 5  # type: ignore

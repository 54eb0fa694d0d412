"""Shared fixtures: canonical example instances reused across test modules,
and the flow-kernel switch."""

from __future__ import annotations

import pytest

from repro.flow import incremental
from repro.flow.csr import CSRMaxFlow
from repro.flow.dinic import MaxFlow
from repro.instances.families import natural_gap, rigid_chain, section5_gap
from repro.instances.generators import laminar_suite, random_laminar
from repro.instances.jobs import Instance, Job


@pytest.fixture(scope="session")
def tiny_instance() -> Instance:
    """Three jobs, two slots needed: the README example."""
    return Instance.from_triples(
        [(0, 4, 2), (0, 2, 1), (2, 4, 1)], g=2, name="tiny"
    )


@pytest.fixture(scope="session")
def single_job_instance() -> Instance:
    return Instance(
        jobs=(Job(id=7, release=3, deadline=9, processing=4),), g=1, name="single"
    )


@pytest.fixture(scope="session")
def nested_chain_instance() -> Instance:
    return rigid_chain(4)


@pytest.fixture(scope="session")
def gap_instance() -> Instance:
    return section5_gap(3)


@pytest.fixture(scope="session")
def separation_instance() -> Instance:
    return natural_gap(3)


@pytest.fixture(scope="session")
def small_suite() -> list[Instance]:
    """A fast, diverse battery of feasible laminar instances."""
    return laminar_suite(seed=11, sizes=(5, 9, 14))


@pytest.fixture(scope="session")
def medium_laminar() -> Instance:
    return random_laminar(20, 3, horizon=40, seed=42, unit_fraction=0.3)


@pytest.fixture(scope="session")
def crossing_instance() -> Instance:
    """Windows [0,3) and [2,5) properly cross: not laminar."""
    return Instance.from_triples(
        [(0, 3, 1), (2, 5, 1)], g=1, name="crossing"
    )


@pytest.fixture(params=["csr", "object"])
def each_kernel(request, monkeypatch):
    """Force every prober built in the test onto one kernel."""
    limit = 0 if request.param == "csr" else 10**9
    monkeypatch.setattr(incremental, "SMALL_NETWORK_ARCS", limit)
    return CSRMaxFlow if request.param == "csr" else MaxFlow

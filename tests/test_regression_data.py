"""Regression pins: the repository's data/ instances keep their meaning.

Each file in ``data/`` encodes a finding (a counterexample, an
adversarial seed, a gap family at reference size); these tests re-derive
the property from the stored JSON so any solver change that silently
alters it fails loudly.
"""

from pathlib import Path

import pytest

from repro.baselines.exact import solve_exact
from repro.baselines.minimal_feasible import minimal_feasible_schedule
from repro.baselines.unit_jobs import unit_active_time
from repro.instances.io import load_instance
from repro.lp.natural_lp import solve_natural_lp
from repro.lp.nested_lp import solve_nested_lp
from repro.online import EagerActivation, LazyActivation, run_online
from repro.tree.canonical import canonicalize
from repro.util.errors import InfeasibleInstanceError

DATA = Path(__file__).resolve().parent.parent / "data"


def _load(name: str):
    return load_instance(DATA / name)


class TestDataFiles:
    def test_all_files_parse(self):
        import json

        from repro.twin import load_trace

        files = sorted(DATA.glob("*.json"))
        assert len(files) >= 6
        for f in files:
            if json.loads(f.read_text()).get("kind") == "twin-event-log":
                assert len(load_trace(f)) >= 1
            else:
                inst = load_instance(f)
                assert inst.n >= 1

    def test_twin_smoke_trace_replays_clean(self):
        """The committed CI trace replays clean with every event
        cross-checked from scratch, audits under the machine model, and
        keeps its counts and diff-stream fingerprint (a format or
        repair-behaviour change must update this pin)."""
        from repro.simulate.machine import BatchMachine
        from repro.twin import TwinSession, load_trace, twin_fingerprint
        from repro.verify.reference import cross_check_twin

        trace = load_trace(DATA / "twin_trace_smoke.json")
        session = TwinSession(trace.g, start=trace.start)
        diffs = []
        for event in trace.events:
            diffs.append(session.apply(event))
            cross_check_twin(session, diffs[-1])
        BatchMachine(trace.g).audit_twin(session)
        assert len(diffs) == 80
        assert sum(d.accepted for d in diffs) == 72
        assert sum(not d.accepted for d in diffs) == 8
        assert session.active_time == 34
        assert twin_fingerprint(diffs) == (
            "cad428f42b6452c694d0f69e33f11ee595203286409854587afbde58de1c6b77"
        )

    def test_online_defer_trap(self):
        inst = _load("online_defer_trap.json")
        assert solve_exact(inst).optimum == 3  # offline fine
        with pytest.raises(InfeasibleInstanceError):
            run_online(inst, LazyActivation())

    def test_online_eager_trap(self):
        inst = _load("online_eager_trap.json")
        assert solve_exact(inst, node_budget=400_000).optimum >= 1
        with pytest.raises(InfeasibleInstanceError):
            run_online(inst, EagerActivation())

    def test_unit_lazy_suboptimal(self):
        inst = _load("unit_lazy_suboptimal.json")
        assert not inst.is_laminar
        assert unit_active_time(inst) > solve_exact(inst).optimum

    def test_greedy_adversarial_seed_160(self):
        inst = _load("greedy_adversarial_160.json")
        opt = solve_exact(inst).optimum
        greedy = minimal_feasible_schedule(inst, "given").active_time
        assert greedy / opt > 1.2

    def test_section5_gap_reference(self):
        inst = _load("section5_gap_g4.json")
        assert solve_exact(inst).optimum == 6  # g + ceil(g/2), g=4
        lp = solve_nested_lp(canonicalize(inst)).value
        assert lp <= 6  # strict gap at reference size
        assert 6 / lp >= 1.19

    def test_natural_gap_reference(self):
        inst = _load("natural_gap_g4.json")
        assert solve_natural_lp(inst).value == pytest.approx(5 / 4)
        assert solve_exact(inst).optimum == 2


class TestApiDocs:
    def test_api_index_is_current(self):
        """docs/API.md must match the live exports (regen script)."""
        import sys

        sys.path.insert(0, str(DATA.parent / "scripts"))
        try:
            import gen_api_docs
        finally:
            sys.path.pop(0)
        current = (DATA.parent / "docs" / "API.md").read_text()
        assert gen_api_docs.generate() == current

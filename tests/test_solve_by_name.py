"""One way to run a scheduler by name.

``/solve`` with ``algorithm=`` or ``policy=`` and ``active-time solve
--algorithm`` all run ``make_policy(name).run(instance)``.  These tests
pin every spelling to a direct call of the solver it names on a sample
of the smoke corpus, the degenerate n = 0 body, and the exact search's
node budget per spelling.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.baselines.exact as exact
from repro.baselines.exact import solve_exact
from repro.baselines.kumar_khuller import kumar_khuller_schedule
from repro.baselines.minimal_feasible import minimal_feasible_schedule
from repro.cli import main
from repro.core.algorithm import solve_nested
from repro.corpus.store import iter_corpus
from repro.instances.io import dump_instance, instance_to_dict, schedule_to_dict
from repro.instances.jobs import Instance
from repro.online import EagerActivation, LazyActivation, run_online
from repro.policies import make_policy, policy_names
from repro.service import NODES_PER_MS, SchedulingService, ServiceError
from repro.service.workers import SOLVE_ALGORITHMS
from repro.util.errors import InfeasibleInstanceError

CORPUS = Path(__file__).resolve().parent.parent / "data" / "corpus_smoke"

#: Every 25th smoke-corpus instance: all families, 18 instances.
SAMPLE = [e.instance() for e in iter_corpus(CORPUS) if e.offset % 25 == 0]

#: Each ``solve --algorithm`` spelling and the solver call it names.
DIRECT = {
    "nested": lambda inst: solve_nested(inst).schedule,
    "greedy": minimal_feasible_schedule,
    "kk": kumar_khuller_schedule,
    "exact": lambda inst: solve_exact(inst).schedule(inst),
    "lazy-online": lambda inst: run_online(inst, LazyActivation()).schedule,
    "eager-online": lambda inst: run_online(inst, EagerActivation()).schedule,
}


def _cases(spelling: str) -> list[tuple[Instance, dict]]:
    """Sample instances the named solver schedules, with its schedule."""
    cases = []
    for inst in SAMPLE:
        if spelling == "nested" and not inst.is_laminar:
            continue
        try:
            cases.append((inst, schedule_to_dict(DIRECT[spelling](inst))))
        except InfeasibleInstanceError:
            continue
    assert len(cases) >= 8
    return cases


@pytest.fixture(scope="module")
def service():
    service = SchedulingService(workers=1)
    yield service
    service.shutdown()


@pytest.mark.parametrize("spelling", list(DIRECT))
def test_cli_solve_equals_the_direct_solver(spelling, tmp_path):
    inst_path, out = tmp_path / "inst.json", tmp_path / "out.json"
    for inst, expected in _cases(spelling):
        dump_instance(inst, inst_path)
        args = ["solve", str(inst_path), "--algorithm", spelling, "--output", str(out)]
        assert main(args) == 0
        assert json.loads(out.read_text()) == expected


@pytest.mark.parametrize("algorithm", SOLVE_ALGORITHMS)
def test_served_algorithm_equals_the_direct_solver_and_the_policy(algorithm, service):
    for inst, expected in _cases(algorithm):
        body = {"instance": instance_to_dict(inst)}
        by_algorithm = service.solve({**body, "algorithm": algorithm})
        by_policy = service.solve({**body, "policy": algorithm})
        assert by_algorithm["schedule"]["assignment"] == expected["assignment"]
        assert by_policy["schedule"] == by_algorithm["schedule"]
        assert by_policy["active_time"] == by_algorithm["active_time"]


class TestEmptyBody:
    EMPTY = {"version": 1, "g": 2, "jobs": []}

    @pytest.mark.parametrize("algorithm", SOLVE_ALGORITHMS)
    @pytest.mark.parametrize("split", [None, True])
    def test_algorithm(self, algorithm, split, service):
        body = {"instance": self.EMPTY, "algorithm": algorithm}
        if split is not None:
            body["split"] = split
        response = service.solve(body)
        for key in ("solver", "flow"):
            response.pop(key)
        expected = {
            "algorithm": algorithm,
            "active_time": 0,
            "degraded": False,
            "parts": 1,
            "schedule": {
                "version": 1,
                "instance": {"version": 1, "name": "", "g": 2, "jobs": []},
                "assignment": {},
            },
        }
        if algorithm == "nested":
            expected.update(lp_value=0.0, repairs=0)
        if algorithm == "exact":
            expected.update(nodes_explored=0)
        assert response == expected
        assert isinstance(response.get("lp_value", 0.0), float)

    def test_every_policy(self, service):
        for name in policy_names():
            response = service.solve({"instance": self.EMPTY, "policy": name})
            assert (response["active_time"], response["parts"]) == (0, 1)
            assert response["stats"] == {}
            assert response["degraded"] is False

    def test_cli(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(self.EMPTY))
        for spelling in DIRECT:
            assert main(["solve", str(path), "--algorithm", spelling]) == 0
        out = capsys.readouterr().out
        assert out.count("active_time=0 slots=()") == len(DIRECT)
        assert "active_time=0 lp=0.000 ratio=1.000 (bound 1.8) repairs=0" in out


class TestExactBudgetPerSpelling:
    """Each spelling hands its own node budget to ``solve_exact``."""

    @pytest.fixture
    def budgets(self, monkeypatch):
        seen: list[int] = []

        def recording_solve_exact(instance, *, node_budget):
            seen.append(node_budget)
            return solve_exact(instance, node_budget=node_budget)

        monkeypatch.setattr(exact, "solve_exact", recording_solve_exact)
        return seen

    INSTANCE = next(inst for inst in SAMPLE if inst.n > 0 and inst.is_laminar)

    def _served(self, service, **options):
        body = {"instance": instance_to_dict(self.INSTANCE), **options}
        return service.solve(body)

    def test_algorithm_exact(self, service, budgets):
        self._served(service, algorithm="exact")
        self._served(service, algorithm="exact", node_budget=77)
        self._served(service, algorithm="exact", deadline_ms=3)
        self._served(service, algorithm="exact", deadline_ms=3, node_budget=5000)
        assert budgets == [2_000_000, 77, 3 * NODES_PER_MS, 5000]

    def test_policy_exact(self, service, budgets):
        self._served(service, policy="exact")
        for field, value in (("node_budget", 77), ("deadline_ms", 3), ("split", True)):
            with pytest.raises(ServiceError, match=field) as err:
                self._served(service, policy="exact", **{field: value})
            assert err.value.status == 400
        make_policy("exact").run(self.INSTANCE)
        make_policy("exact", node_budget=9).run(self.INSTANCE)
        assert budgets == [200_000, 200_000, 9]

    def test_cli(self, tmp_path, budgets):
        path = tmp_path / "inst.json"
        dump_instance(self.INSTANCE, path)
        assert main(["solve", str(path), "--algorithm", "exact"]) == 0
        assert main(["solve", str(path), "--algorithm", "exact", "--node-budget", "55"]) == 0
        assert main(["policies", "run", "exact", str(path)]) == 0
        assert budgets == [2_000_000, 55, 200_000]

    def test_degraded_answers_carry_the_reason(self, service, budgets, tmp_path, capsys):
        inst = next(i for i in SAMPLE if solve_exact(i).nodes_explored > 3)
        body = {"instance": instance_to_dict(inst)}
        served = service.solve({**body, "algorithm": "exact", "node_budget": 3})
        assert served["degraded"] is True
        assert served["degraded_reason"].startswith("exact search exceeded 3 nodes")
        stats = make_policy("exact", node_budget=3).run(inst).stats
        assert stats["degraded"] is True and stats["optimal"] is False
        assert stats["degraded_reason"] == served["degraded_reason"]
        path = tmp_path / "inst.json"
        dump_instance(inst, path)
        assert main(["solve", str(path), "--algorithm", "exact", "--node-budget", "3"]) == 0
        err = capsys.readouterr().err
        assert err.startswith(f"warning: {served['degraded_reason']} — emitting the incumbent")


class TestSolveErrors:
    """``solve`` ends on a typed error with its message and the exit code
    ``policies run`` gives, not a traceback."""

    DATA = Path(__file__).resolve().parent.parent / "data"

    def test_nested_on_a_non_laminar_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        dump_instance(next(i for i in SAMPLE if not i.is_laminar), path)
        assert main(["solve", str(path), "--algorithm", "nested"]) == 2
        err = capsys.readouterr().err
        assert "policy 'nested' does not support" in err
        assert main(["policies", "run", "nested", str(path)]) == 2
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize(
        "spelling, policy", [("lazy-online", "lazy"), ("eager-online", "eager")]
    )
    def test_online_infeasible_file_exits_1(self, spelling, policy, capsys):
        path = str(self.DATA / "online_eager_trap.json")
        assert main(["solve", path, "--algorithm", spelling]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("online-infeasible: pending work")
        assert main(["policies", "run", policy, path]) == 1
        assert capsys.readouterr().err == captured.err

    @pytest.mark.parametrize(
        "spelling, policy, label",
        [
            ("nested", "nested", "infeasible"),
            ("greedy", "greedy", "infeasible"),
            ("exact", "exact", "infeasible"),
            ("lazy-online", "lazy", "online-infeasible"),
        ],
    )
    def test_offline_infeasible_file_is_labelled_by_policy_kind(
        self, spelling, policy, label, tmp_path, capsys
    ):
        path = tmp_path / "inst.json"
        dump_instance(Instance.from_triples([(0, 1, 1)] * 2, g=1), path)
        assert main(["policies", "run", policy, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{label}: ")
        assert main(["solve", str(path), "--algorithm", spelling]) == 1
        assert capsys.readouterr().err == err

"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.instances.io import dump_instance, load_instance
from repro.instances.jobs import Instance
from repro.twin import TwinSession, load_trace, twin_fingerprint
from repro.verify.reference import cross_check_twin


@pytest.fixture()
def inst_path(tmp_path):
    path = tmp_path / "inst.json"
    dump_instance(
        Instance.from_triples([(0, 4, 2), (0, 2, 1), (2, 4, 1)], g=2, name="cli"),
        path,
    )
    return str(path)


class TestGenerate:
    def test_random_laminar(self, tmp_path, capsys):
        out = tmp_path / "gen.json"
        assert main(["generate", str(out), "--jobs", "6", "--g", "2"]) == 0
        inst = load_instance(out)
        assert inst.g == 2
        assert "wrote" in capsys.readouterr().out

    def test_family(self, tmp_path):
        out = tmp_path / "fam.json"
        assert main(["generate", str(out), "--family", "section5_gap", "--g", "3"]) == 0
        assert load_instance(out).name == "section5_gap(g=3)"

    def test_unknown_family_fails(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["generate", str(out), "--family", "nope"]) == 2
        assert "unknown family" in capsys.readouterr().err

    def test_general_flag(self, tmp_path):
        out = tmp_path / "gen.json"
        assert main(["generate", str(out), "--general", "--jobs", "8"]) == 0


class TestSolve:
    @pytest.mark.parametrize("algo", ["nested", "greedy", "kk", "exact"])
    def test_algorithms(self, inst_path, capsys, algo):
        assert main(["solve", inst_path, "--algorithm", algo]) == 0
        assert "active_time=2" in capsys.readouterr().out

    def test_writes_schedule(self, inst_path, tmp_path):
        out = tmp_path / "sched.json"
        assert main(["solve", inst_path, "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert "assignment" in doc


class TestEvaluateAndGap:
    def test_evaluate_prints_table(self, inst_path, capsys):
        assert main(["evaluate", inst_path]) == 0
        out = capsys.readouterr().out
        assert "algorithm" in out and "OPT=2" in out

    def test_gap_prints_three_relaxations(self, inst_path, capsys):
        assert main(["gap", inst_path]) == 0
        out = capsys.readouterr().out
        for name in ("natural", "cw", "nested"):
            assert name in out


class TestNewFlags:
    def test_show_prints_gantt(self, inst_path, capsys):
        assert main(["solve", inst_path, "--show"]) == 0
        out = capsys.readouterr().out
        assert "power" in out and "|" in out

    @pytest.mark.parametrize("algo", ["lazy-online", "eager-online"])
    def test_online_algorithms(self, inst_path, capsys, algo):
        assert main(["solve", inst_path, "--algorithm", algo]) == 0
        assert "active_time=" in capsys.readouterr().out

    def test_module_entrypoint(self, inst_path):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "solve", inst_path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "active_time=2" in proc.stdout


class TestInspect:
    def test_inspect_laminar(self, inst_path, capsys):
        assert main(["inspect", inst_path]) == 0
        out = capsys.readouterr().out
        assert "omega=" in out and "canonical forest" in out

    def test_inspect_non_laminar(self, tmp_path, capsys):
        path = tmp_path / "cross.json"
        dump_instance(
            Instance.from_triples([(0, 3, 1), (2, 5, 1)], g=1), path
        )
        assert main(["inspect", str(path)]) == 0
        assert "not laminar" in capsys.readouterr().out


class TestTwin:
    def test_record_then_replay(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(
            ["twin", "record", str(trace), "--events", "40", "--g", "2",
             "--seed", "6"]
        ) == 0
        assert "40 events" in capsys.readouterr().out
        report = tmp_path / "replay.json"
        assert main(
            ["twin", "replay", str(trace), "--audit", "--report", str(report)]
        ) == 0
        out = capsys.readouterr().out
        assert "diff-stream fingerprint:" in out
        assert "machine audit: committed history is valid" in out
        doc = json.loads(report.read_text())
        assert len(doc["diffs"]) == 40
        assert "backend" not in doc
        # The replayed stream is the one a cross-checked replay produces.
        session = TwinSession(2)
        diffs = []
        for event in load_trace(trace).events:
            diffs.append(session.apply(event))
            cross_check_twin(session, diffs[-1])
        assert doc["fingerprint"] == twin_fingerprint(diffs)

    def test_replay_has_no_backend_option(self, tmp_path):
        trace = tmp_path / "trace.json"
        main(["twin", "record", str(trace), "--events", "5"])
        with pytest.raises(SystemExit) as info:
            main(["twin", "replay", str(trace), "--backend", "cold"])
        assert info.value.code == 2

    def test_record_from_instance(self, inst_path, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["twin", "record", str(trace), "--from-instance", inst_path]) == 0
        assert main(["twin", "replay", str(trace), "--strict"]) == 0
        assert "rejected" in capsys.readouterr().out

    def test_replay_is_deterministic(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        main(["twin", "record", str(trace), "--events", "30", "--seed", "9"])
        prints = []
        for _ in range(2):
            assert main(["twin", "replay", str(trace)]) == 0
            out = capsys.readouterr().out
            prints.append(
                next(ln for ln in out.splitlines() if "fingerprint" in ln)
            )
        assert prints[0] == prints[1]

    def test_fuzz_smoke(self, capsys):
        assert main(["twin", "fuzz", "--n-traces", "2", "--events", "25"]) == 0
        assert "matched the from-scratch path" in capsys.readouterr().out


class TestPoliciesCommand:
    def test_list_prints_registry(self, capsys):
        assert main(["policies", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("nested", "lazy", "twin", "advice-perfect"):
            assert name in out

    def test_run_policy(self, inst_path, capsys):
        assert main(["policies", "run", "greedy", inst_path]) == 0
        out = capsys.readouterr().out
        assert "policy greedy (offline)" in out
        assert "active_time" in out

    def test_run_writes_schedule(self, inst_path, tmp_path):
        out = tmp_path / "sched.json"
        assert main(
            ["policies", "run", "lazy", inst_path, "-o", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert "assignment" in doc

    def test_run_unknown_policy_is_usage_error(self, inst_path, capsys):
        assert main(["policies", "run", "nope", inst_path]) == 2
        assert "known policies" in capsys.readouterr().err

    def test_leaderboard_smoke_subset(self, capsys):
        assert main(
            ["policies", "leaderboard", "--smoke", "--only", "greedy,exact"]
        ) == 0
        out = capsys.readouterr().out
        assert "Policy leaderboard" in out
        assert "greedy" in out and "exact" in out

    def test_sweep_on_corpus_shard(self, tmp_path, capsys):
        from pathlib import Path

        corpus = str(Path(__file__).resolve().parents[1] / "data" / "corpus_smoke")
        report = tmp_path / "sweep.json"
        assert main(
            [
                "policies", "sweep", "--corpus", corpus,
                "--shard", "0/150", "--only", "greedy,lazy",
                "--report", str(report),
            ]
        ) == 0
        assert "policy feasibility sweep" in capsys.readouterr().out
        doc = json.loads(report.read_text())
        assert doc["violations"] == []
        assert doc["runs"] == doc["instances"] * 2

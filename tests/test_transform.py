"""Unit tests for the Lemma 3.1 push-down transformation and Claim 1."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.algorithm import solve_nested
from repro.core.transform import (
    push_down,
    verify_claim1,
    verify_pushdown_invariant,
)
from repro.corpus.store import iter_corpus
from repro.instances.generators import random_laminar
from repro.lp.nested_lp import solve_nested_lp
from repro.tree.canonical import canonicalize
from repro.util.numeric import EPS, SUM_EPS, snap_vector

ROOT = Path(__file__).resolve().parents[1]


def _transformed(seed, n=10, g=3, horizon=24):
    inst = random_laminar(n, g, horizon=horizon, seed=seed, unit_fraction=0.3)
    canon = canonicalize(inst)
    sol = solve_nested_lp(canon)
    return canon, sol, push_down(canon.forest, sol.x, sol.y)


class TestPushDown:
    @pytest.mark.parametrize("seed", range(8))
    def test_invariant_holds_after_transform(self, seed):
        canon, _, tr = _transformed(seed)
        assert verify_pushdown_invariant(canon.forest, tr.x)

    @pytest.mark.parametrize("seed", range(8))
    def test_objective_preserved(self, seed):
        _, sol, tr = _transformed(seed)
        assert tr.x.sum() == pytest.approx(sol.x.sum(), abs=1e-6)

    @pytest.mark.parametrize("seed", range(8))
    def test_volume_preserved_per_job(self, seed):
        _, sol, tr = _transformed(seed)
        np.testing.assert_allclose(
            tr.y.sum(axis=0), sol.y.sum(axis=0), atol=1e-6
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_solution_stays_lp_feasible(self, seed):
        canon, sol, tr = _transformed(seed)
        forest = canon.forest
        g = canon.instance.g
        for i in range(forest.m):
            assert tr.x[i] <= forest.length[i] + SUM_EPS
            assert tr.y[i, :].sum() <= g * tr.x[i] + SUM_EPS
            for pos in range(canon.instance.n):
                assert tr.y[i, pos] <= tr.x[i] + SUM_EPS

    @pytest.mark.parametrize("seed", range(8))
    def test_admissibility_preserved(self, seed):
        canon, _, tr = _transformed(seed)
        forest = canon.forest
        for pos, job in enumerate(canon.instance.jobs):
            admissible = set(forest.descendants(canon.job_node[job.id]))
            for i in range(forest.m):
                if tr.y[i, pos] > SUM_EPS:
                    assert i in admissible

    @pytest.mark.parametrize("seed", range(8))
    def test_claim1_properties(self, seed):
        canon, _, tr = _transformed(seed)
        assert verify_claim1(canon.forest, tr.x, tr.topmost) == []

    def test_already_pushed_solution_is_fixed_point(self):
        canon, _, tr = _transformed(3)
        again = push_down(canon.forest, tr.x, tr.y)
        np.testing.assert_allclose(again.x, tr.x, atol=1e-9)
        assert again.moves == 0

    def test_figure1_style_example(self):
        """Hand-built: mass at a root with an unsaturated child moves down."""
        from repro.instances.jobs import Instance

        inst = Instance.from_triples([(0, 6, 1), (0, 2, 2)], g=1)
        canon = canonicalize(inst)
        forest = canon.forest
        # Put the root job's fraction at the root explicitly.
        x = np.zeros(forest.m)
        y = np.zeros((forest.m, 2))
        root = canon.forest.roots[0]
        child = canon.job_node[1]
        x[root] = 1.0
        x[child] = 1.0
        y[root, 0] = 1.0
        y[child, 1] = 1.0
        tr = push_down(forest, x, y)
        assert verify_pushdown_invariant(forest, tr.x)
        # Root mass moved into the child region (child has length 2).
        assert tr.x[root] == 0.0 or all(
            tr.x[d] == forest.length[d] for d in forest.strict_descendants(root)
        )


def _moving_push_down(forest, x, y):
    """Reference: Lemma 3.1 moving ``x`` and the per-job ``y`` together,
    in one loop."""
    x = x.astype(float).copy()
    y = y.astype(float).copy()
    lengths = np.array([forest.length[i] for i in range(forest.m)], dtype=float)
    for i1 in forest.preorder:
        if x[i1] <= EPS:
            continue
        for i2 in sorted(
            forest.strict_descendants(i1), key=lambda k: -forest.depth[k]
        ):
            if x[i1] <= EPS:
                break
            slack = lengths[i2] - x[i2]
            if slack <= EPS:
                continue
            theta = min(slack, x[i1])
            frac = theta / x[i1]
            moved = frac * y[i1, :]
            y[i1, :] -= moved
            y[i2, :] += moved
            x[i1] -= theta
            x[i2] += theta
    y[np.abs(y) < EPS] = 0.0
    return snap_vector(x), y


class TestPerJobYOnDemand:
    """``solve_nested`` builds no per-job ``y``; reading it replays the
    moves, bit for bit what moving ``y`` along with ``x`` gave."""

    def test_replay_matches_moving_y_on_the_corpus(self):
        checked = 0
        for entry in iter_corpus(ROOT / "data" / "corpus_smoke"):
            inst = entry.instance()
            if not inst.is_laminar:
                continue
            result = solve_nested(inst)
            assert result.lp_solution._y is None
            assert result.transformed._y is None
            x, y = _moving_push_down(
                result.canonical.forest,
                result.lp_solution.x,
                result.lp_solution.y,
            )
            assert np.array_equal(result.transformed.x, x)
            assert np.array_equal(result.transformed.y, y)
            checked += 1
        assert checked == 347

    def test_large_solve_in_bounded_memory(self):
        """n = 20000 solves under a 1 GB address-space cap.

        One per-job ``(m, n)`` array of this instance is 641 MB, so a
        solve that built one (let alone a copy) would fail with
        ``MemoryError``.  HiGHS is replaced by a stub answering with
        every node open and the all-open node flow as ``Y``, a feasible
        class solution, so the test does not pay a minutes-long LP solve.
        """
        script = textwrap.dedent(
            """
            import resource
            import sys
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            sys.path.insert(0, sys.argv[1])
            import numpy as np
            from planted import planted_instance
            from repro.core.algorithm import solve_nested
            from repro.flow.feasibility import node_assignment
            from repro.instances.io import instance_from_dict
            from repro.lp.backend import LPSolution
            from repro.lp.nested_lp import job_classes
            from repro.solver.service import BACKENDS
            from repro.tree.canonical import canonicalize

            n = 20000
            inst = instance_from_dict(planted_instance(
                5, n=n, horizon=3 * n, g=8, windows=n // 4, p_max=20
            ))
            canon = canonicalize(inst)
            forest, classes = canon.forest, job_classes(canon)
            lengths = [forest.length[i] for i in range(forest.m)]
            cls = dict(zip(
                (job.id for job in canon.instance.jobs),
                classes.job_class.tolist(),
            ))
            column = {
                key: forest.m + t
                for t, key in enumerate(zip(
                    classes.col_node.tolist(), classes.col_class.tolist()
                ))
            }
            x = np.zeros(forest.m + classes.num_columns)
            x[: forest.m] = lengths
            flow = node_assignment(canon.instance, forest, canon.job_node, lengths)
            for (i, jid), units in flow.items():
                x[column[i, cls[jid]]] += units
            BACKENDS["highs"] = lambda lp, parts: LPSolution(sum(lengths), x=x)
            result = solve_nested(inst)
            assert forest.m * n * 8 > 600 << 20  # one per-job array
            print(
                result.lp_value == sum(lengths),
                result.active_time <= sum(lengths),
                result.schedule.is_valid,
            )
            """
        )
        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(ROOT / "perfbench")],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "True True True"

"""Unit tests for the LP modelling layer, HiGHS and the simplex oracle."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.corpus.store import iter_corpus
from repro.instances.io import instance_from_dict
from repro.lp.backend import HIGHS_OPTIONS, PRESOLVE_MIN_COLS, LinearProgram
from repro.lp.nested_lp import build_nested_lp
from repro.tree.canonical import canonicalize
from repro.util.errors import SolverError
from repro.verify.simplex import SimplexSolver, simplex_solve

ROOT = Path(__file__).resolve().parents[1]


def _toy_lp():
    """min x + 2y  s.t.  x + y >= 3,  y <= 5,  x <= 2  → x=2, y=1, obj=4."""
    lp = LinearProgram("toy")
    x = lp.add_var(objective=1.0, upper=2.0)
    y = lp.add_var(objective=2.0, upper=5.0)
    lp.add_constraint({x: 1, y: 1}, ">=", 3)
    return lp


class TestModelling:
    def test_columns_are_positions(self):
        lp = LinearProgram()
        assert lp.add_var() == 0
        assert lp.add_vars(3, upper=[1.0, 2.0, 3.0]) == range(1, 4)
        assert lp.add_var(objective=5.0) == 4
        assert lp.add_vars(0) == range(5, 5)
        bounds = lp.compile()["bounds"]
        assert bounds[1:4, 1].tolist() == [1.0, 2.0, 3.0]

    def test_unknown_var_in_constraint_rejected(self):
        lp = LinearProgram("m")
        lp.add_var()
        for col in (1, -1, "x", 0.0):
            with pytest.raises(ValueError, match="unknown column") as exc:
                lp.add_constraint({col: 1}, "<=", 1)
            assert repr(col) in str(exc.value) and "'m'" in str(exc.value)

    def test_failed_constraint_leaves_model_unchanged(self):
        # The unknown column comes after a valid one; the row must not
        # be added in part.
        lp = LinearProgram()
        x, y = lp.add_vars(2)
        with pytest.raises(ValueError):
            lp.add_constraint({x: 1, 7: 2, y: 3}, "<=", 1)
        assert lp.num_constraints == 0
        lp.add_constraint({x: 1, y: 1}, "<=", 5)
        assert lp.num_constraints == 1
        assert lp.compile()["A_ub"].nnz == 2

    def test_add_vars_atomic_on_bad_input(self):
        lp = LinearProgram()
        lp.add_var()
        with pytest.raises(ValueError, match="entries for 2"):
            lp.add_vars(2, upper=[1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="cannot add -1"):
            lp.add_vars(-1)
        assert lp.num_vars == 1  # nothing was half-added

    def test_bad_sense_rejected(self):
        lp = LinearProgram()
        x = lp.add_var()
        with pytest.raises(ValueError):
            lp.add_constraint({x: 1}, "<", 1)

    def test_zero_coefficients_dropped(self):
        lp = LinearProgram()
        x = lp.add_var()
        lp.add_constraint({x: 0.0}, "<=", 1)
        parts = lp.compile()
        assert parts["A_ub"].nnz == 0

    def test_counts(self):
        lp = _toy_lp()
        assert lp.num_vars == 2
        assert lp.num_constraints == 1

    def test_ge_rows_compile_negated(self):
        lp = _toy_lp()
        lp.add_constraint({0: 1}, "<=", 2)
        parts = lp.compile()
        assert parts["negated_ub"].tolist() == [True, False]
        assert parts["A_ub"].toarray().tolist() == [[-1.0, -1.0], [1.0, 0.0]]
        assert parts["b_ub"].tolist() == [-3.0, 2.0]
        assert LinearProgram().compile()["negated_ub"] is None


class TestHighsBackend:
    def test_toy_optimum(self):
        sol = _toy_lp().solve()
        assert sol.value == pytest.approx(4.0)
        assert sol.x.tolist() == pytest.approx([2.0, 1.0])

    def test_infeasible_raises(self):
        lp = LinearProgram()
        x = lp.add_var(objective=1.0, upper=1.0)
        lp.add_constraint({x: 1}, ">=", 2)
        with pytest.raises(SolverError):
            lp.solve()

    def test_equality_constraint(self):
        lp = LinearProgram()
        x, y = lp.add_vars(2, objective=1.0)
        lp.add_constraint({x: 1, y: 2}, "==", 4)
        sol = lp.solve()
        assert sol.value == pytest.approx(2.0)  # y=2 is cheapest
        assert sol.marginals_ub is None
        assert sol.marginals_eq.tolist() == pytest.approx([0.5])


class TestSimplexBackend:
    def test_toy_optimum(self):
        sol = simplex_solve(_toy_lp())
        assert sol.value == pytest.approx(4.0)

    def test_equality_and_lower_bounds(self):
        lp = LinearProgram()
        x = lp.add_var(objective=3.0, lower=1.0)
        y = lp.add_var(objective=1.0)
        lp.add_constraint({x: 1, y: 1}, "==", 5)
        sol = simplex_solve(lp)
        assert sol.value == pytest.approx(3 * 1 + 4)

    def test_infeasible_detected(self):
        lp = LinearProgram()
        x = lp.add_var(upper=1.0, objective=1.0)
        lp.add_constraint({x: 1}, ">=", 3)
        with pytest.raises(SolverError):
            simplex_solve(lp)

    def test_unbounded_detected(self):
        c = np.array([-1.0])
        a = np.zeros((0, 1))
        b = np.zeros(0)
        with pytest.raises(SolverError):
            SimplexSolver(c, a, b).solve()

    def test_degenerate_lp_terminates(self):
        # Multiple constraints active at the optimum (Bland must not cycle).
        lp = LinearProgram()
        x, y, z = lp.add_vars(3, objective=1.0)
        lp.add_constraint({x: 1, y: 1}, ">=", 1)
        lp.add_constraint({y: 1, z: 1}, ">=", 1)
        lp.add_constraint({x: 1, z: 1}, ">=", 1)
        sol = simplex_solve(lp)
        assert sol.value == pytest.approx(1.5)


@st.composite
def random_lps(draw):
    """Small random covering LPs (always feasible, always bounded)."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    costs = [draw(st.integers(1, 9)) for _ in range(n)]
    rows = []
    for _ in range(m):
        coeffs = [draw(st.integers(0, 3)) for _ in range(n)]
        if sum(coeffs) == 0:
            coeffs[draw(st.integers(0, n - 1))] = 1
        rhs = draw(st.integers(0, 10))
        rows.append((coeffs, rhs))
    return costs, rows


class TestBackendAgreement:
    @given(random_lps())
    @settings(max_examples=50, deadline=None)
    def test_simplex_matches_highs(self, spec):
        costs, rows = spec
        lp = LinearProgram()
        lp.add_vars(len(costs), objective=costs)
        for coeffs, rhs in rows:
            lp.add_constraint(dict(enumerate(map(float, coeffs))), ">=", rhs)
        a = lp.solve()
        b = simplex_solve(lp)
        assert a.value == pytest.approx(b.value, abs=1e-6)


def _planted(seed, n, g):
    spec = importlib.util.spec_from_file_location(
        "planted", ROOT / "perfbench" / "planted.py"
    )
    planted = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(planted)
    return instance_from_dict(
        planted.planted_instance(
            seed, n=n, horizon=3 * n, g=g, windows=n // 4, p_max=3
        )
    )


def _planted_instances():
    """Planted laminar instances at the benchmark's LP (1) sizes."""
    for seed, (n, g) in enumerate(((300, 2), (700, 4), (1200, 8), (2000, 8))):
        yield _planted(seed, n, g)


def _assert_optimal(lp):
    """The backend's answer is optimal: ``linprog``'s value, and certified.

    ``linprog`` scales the model, the backend does not, so the two may
    stop at different optimal vertices; the value must agree to a
    relative 1e-9, ``x`` must be feasible within 1e-9, and the
    marginals must be dual feasible and complementary to ``x``.
    """
    parts = lp.compile()
    res = linprog(
        parts["c"],
        A_ub=parts["A_ub"],
        b_ub=parts["b_ub"],
        A_eq=parts["A_eq"],
        b_eq=parts["b_eq"],
        bounds=parts["bounds"],
        method="highs-ds",
    )
    assert res.success, res.message
    sol = lp._solve_highs(parts)
    assert abs(sol.value - res.fun) <= 1e-9 * max(1.0, abs(res.fun))
    c, x = parts["c"], sol.x
    assert abs(c @ x - sol.value) <= 1e-9 * max(1.0, abs(sol.value))
    lower, upper = parts["bounds"].T
    assert (x >= lower - 1e-9).all() and (x <= upper + 1e-9).all()
    reduced = c.copy()
    if parts["A_ub"] is None:  # every row became a bound
        assert sol.marginals_ub is None
    else:
        slack = parts["b_ub"] - parts["A_ub"] @ x
        y = sol.marginals_ub
        assert (slack >= -1e-9).all()
        assert (y <= 1e-9).all()  # dφ/db of a <= row
        assert (np.abs(y) * slack <= 1e-9).all()
        reduced -= parts["A_ub"].T @ y
    if parts["A_eq"] is not None:
        assert np.abs(parts["A_eq"] @ x - parts["b_eq"]).max() <= 1e-9
        reduced -= parts["A_eq"].T @ sol.marginals_eq
    # A column off its lower bound has reduced cost <= 0, one off its
    # upper bound >= 0 (within HiGHS's dual feasibility tolerance).
    assert (reduced[x > lower + 1e-9] <= 1e-7).all()
    assert (reduced[x < upper - 1e-9] >= -1e-7).all()


class TestBundledHighs:
    """The backend calls HiGHS through a private scipy module: pin it."""

    def test_bundled_module_imports(self):
        from scipy.optimize._highspy import _core

        assert hasattr(_core, "_Highs") and hasattr(_core, "HighsLp")
        assert _core.MatrixFormat.kRowwise is not None
        assert _core.kHighsInf == np.inf

    def test_matches_linprog_on_the_corpus(self):
        checked = 0
        for entry in iter_corpus(ROOT / "data" / "corpus_smoke"):
            inst = entry.instance()
            if inst.is_laminar:
                _assert_optimal(build_nested_lp(canonicalize(inst))[0])
                checked += 1
        assert checked == 347

    def test_matches_linprog_on_planted_instances(self):
        for inst in _planted_instances():
            _assert_optimal(build_nested_lp(canonicalize(inst))[0])

    def test_matches_linprog_with_presolve_on(self):
        lp = build_nested_lp(canonicalize(_planted(4, 5000, 8)))[0]
        assert lp.num_vars >= PRESOLVE_MIN_COLS
        _assert_optimal(lp)

    def test_every_option_is_accepted(self):
        from scipy.optimize._highspy import _core

        options = [*HIGHS_OPTIONS.items(), ("presolve", "on")]
        for option, value in options:
            status = _core._Highs().setOptionValue(option, value)
            assert status == _core.HighsStatus.kOk, (option, value)

    def test_rejected_option_raises(self, monkeypatch):
        from repro.lp import backend

        monkeypatch.setitem(backend.HIGHS_OPTIONS, "no_such_option", 1)
        with pytest.raises(SolverError, match="no_such_option") as exc:
            _toy_lp()._solve_highs(_toy_lp().compile())
        assert exc.value.kind == "backend"

    def test_matches_linprog_with_equalities_and_bounds(self):
        lp = LinearProgram("mixed")
        x = lp.add_var(objective=1.0, lower=-2.0, upper=3.0)
        y = lp.add_var(objective=2.0, lower=1.0)
        z = lp.add_var(objective=-1.0, upper=4.0)
        lp.add_constraint({x: 1, y: 1, z: 1}, "==", 5)
        lp.add_constraint({x: 1, z: -1}, "<=", 1)
        lp.add_constraint({y: 1, z: 2}, ">=", 3)
        _assert_optimal(lp)

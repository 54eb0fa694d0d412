"""Duality checks on the LP backend and the paper's relaxations.

Weak/strong duality is an independent correctness oracle for the LP
layer: the dual objective computed from HiGHS marginals must equal the
primal optimum, and complementary slackness must hold.  Rows are read by
their position in the compiled ``A_ub`` block (:func:`oracles.ub_duals`).
"""

import numpy as np
import pytest
from oracles import ub_duals

from repro.instances.families import natural_gap
from repro.instances.generators import random_laminar
from repro.lp.backend import LinearProgram
from repro.lp.nested_lp import build_nested_lp
from repro.tree.canonical import canonicalize


def _solved(lp: LinearProgram):
    """``(parts, sol, duals)`` of ``lp``: its compiled arrays, its
    solution and its ``A_ub`` duals as modelled."""
    parts = lp.compile()
    sol = lp.solve()
    return parts, sol, ub_duals(parts, sol)


class TestToyDuality:
    def test_strong_duality_pure_covering(self):
        lp = LinearProgram("cover")
        x = lp.add_var(objective=2.0)
        y = lp.add_var(objective=3.0)
        lp.add_constraint({x: 1, y: 2}, ">=", 4)
        lp.add_constraint({x: 2, y: 1}, ">=", 4)
        _, sol, duals = _solved(lp)
        assert duals @ [4.0, 4.0] == pytest.approx(sol.value)

    def test_complementary_slackness(self):
        lp = LinearProgram("cs")
        x = lp.add_var(objective=1.0)
        y = lp.add_var(objective=5.0)
        lp.add_constraint({x: 1, y: 1}, ">=", 2)  # tight
        lp.add_constraint({y: 1}, ">=", 0)  # slack
        _, _, (tight, slack) = _solved(lp)
        # y stays 0, the second row is not binding → dual 0.
        assert slack == pytest.approx(0.0)
        assert tight > 0

    def test_nonbinding_cap_has_zero_dual(self):
        lp = LinearProgram()
        x = lp.add_var(objective=1.0)
        lp.add_constraint({x: 1}, ">=", 1)
        lp.add_constraint({x: 1}, "<=", 100)
        _, _, (_, cap) = _solved(lp)
        assert cap == pytest.approx(0.0)


def _nested_rows(canonical):
    """LP (1)'s ``A_ub`` duals and masks of its ceiling and volume rows:
    ``>=`` rows over ``x`` columns only are ceilings (7)–(8), ``>=`` rows
    over ``Y`` columns are volumes (2); the ``<=`` rows are capacity and
    spread rows."""
    lp, _ = build_nested_lp(canonical)
    parts, _, duals = _solved(lp)
    a_ub = parts["A_ub"]
    touches_y = np.diff(a_ub[:, canonical.forest.m :].indptr) > 0
    ge = parts["negated_ub"]
    return duals, ge & ~touches_y, ge & touches_y


class TestNestedLPDuality:
    def test_ceiling_duals_carry_the_gap_family(self):
        """On natural_gap the optimum is supported by a ceiling row."""
        duals, ceiling, _ = _nested_rows(canonicalize(natural_gap(4)))
        assert ceiling.any()
        assert (np.abs(duals[ceiling]) > 1e-9).any(), (
            "the ceiling constraint must be binding"
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_duals_sign_conventions(self, seed):
        inst = random_laminar(8, 2, horizon=18, seed=seed)
        duals, ceiling, volume = _nested_rows(canonicalize(inst))
        covering = ceiling | volume
        assert covering.any() and (~covering).any()
        assert (duals[covering] >= -1e-9).all(), "covering row with negative dual"
        assert (duals[~covering] <= 1e-9).all(), "packing row with positive dual"

"""A from-scratch two-phase tableau simplex solver: the LP test oracle.

The production solve path is HiGHS behind the solver service
(:mod:`repro.solver.service`).  This solver exists only as a cross-check
for it: tests solve the same small models with both and compare optima
and duals.  Dense NumPy tableau, Bland's rule (anti-cycling), two phases
with artificial variables.  Intended for models up to a few hundred
variables; its memory is quadratic in the model size.

:func:`simplex_solve` is the one entry point for a
:class:`~repro.lp.backend.LinearProgram`.  It goes through no cache and
touches no counters.
"""

from __future__ import annotations

import numpy as np

from repro.lp.backend import LinearProgram, LPSolution
from repro.util.errors import SolverError

_TOL = 1e-9


class SimplexSolver:
    """Two-phase primal simplex for ``min c·x`` s.t. ``Ax = b``, ``x ≥ 0``."""

    def __init__(self, c: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
        self.c = np.asarray(c, dtype=float)
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        if self.a.shape != (self.b.size, self.c.size):
            raise ValueError("inconsistent LP dimensions")

    # -- construction from the LinearProgram compiled form -------------------

    @staticmethod
    def from_compiled(parts: dict) -> "SimplexSolver":
        """Build an equality-form solver from ``LinearProgram.compile()``.

        Finite lower bounds are shifted out (``x = l + x'``); finite upper
        bounds become extra ``≤`` rows; ``≤`` rows gain slack variables.
        The returned solver's first ``n`` variables are the shifted
        originals.
        """
        c = np.asarray(parts["c"], dtype=float)
        n = c.size
        a_ub = parts["A_ub"].toarray() if parts["A_ub"] is not None else np.zeros((0, n))
        b_ub = parts["b_ub"] if parts["b_ub"] is not None else np.zeros(0)
        a_eq = parts["A_eq"].toarray() if parts["A_eq"] is not None else np.zeros((0, n))
        b_eq = parts["b_eq"] if parts["b_eq"] is not None else np.zeros(0)
        bounds = np.asarray(parts["bounds"], dtype=float).reshape(-1, 2)
        lower = bounds[:, 0].copy()
        upper = bounds[:, 1].copy()
        if np.any(~np.isfinite(lower)):
            raise SolverError("the simplex oracle requires finite lower bounds")

        # Shift x = lower + x'.
        b_ub = np.asarray(b_ub, dtype=float) - a_ub @ lower
        b_eq = np.asarray(b_eq, dtype=float) - a_eq @ lower
        shifted_upper = upper - lower

        # Finite upper bounds as inequality rows.
        finite = np.where(np.isfinite(shifted_upper))[0]
        if finite.size:
            rows = np.zeros((finite.size, n))
            rows[np.arange(finite.size), finite] = 1.0
            a_ub = np.vstack([a_ub, rows])
            b_ub = np.concatenate([b_ub, shifted_upper[finite]])

        m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
        # Equality form with slacks on the ub rows.
        a = np.zeros((m_ub + m_eq, n + m_ub))
        a[:m_ub, :n] = a_ub
        a[:m_ub, n:] = np.eye(m_ub)
        a[m_ub:, :n] = a_eq
        b = np.concatenate([b_ub, b_eq])
        c_full = np.concatenate([c, np.zeros(m_ub)])

        solver = SimplexSolver(c_full, a, b)
        solver._n_original = n
        solver._lower_shift = lower
        solver._objective_shift = float(c @ lower)
        # Slack bookkeeping for dual extraction: slack column of ub row i
        # sits at n + i; only the first len(b_ub) rows are the
        # caller's constraints (bound rows follow).
        solver._slack_offset = n
        solver._n_ub_rows = m_ub
        return solver

    _n_original: int | None = None
    _lower_shift: np.ndarray | None = None
    _objective_shift: float = 0.0
    _slack_offset: int | None = None
    _n_ub_rows: int = 0

    #: After :meth:`solve`, marginals of the ``≤`` rows (scipy sign
    #: convention: ``dφ/db_i``, nonpositive at a minimum).  Empty when
    #: the solver was built directly rather than via :meth:`from_compiled`.
    marginals_ub: np.ndarray | None = None

    # -- core simplex --------------------------------------------------------

    @staticmethod
    def _pivot(tab: np.ndarray, basis: list[int], row: int, col: int) -> None:
        tab[row] /= tab[row, col]
        for r in range(tab.shape[0]):
            if r != row and abs(tab[r, col]) > _TOL:
                tab[r] -= tab[r, col] * tab[row]
        basis[row] = col

    @staticmethod
    def _iterate(tab: np.ndarray, basis: list[int], n_cols: int) -> None:
        """Run simplex iterations on the tableau until optimal (Bland)."""
        m = tab.shape[0] - 1
        while True:
            # Bland: entering = smallest index with negative reduced cost.
            col = -1
            for j in range(n_cols):
                if tab[-1, j] < -_TOL:
                    col = j
                    break
            if col < 0:
                return
            # Ratio test; Bland tie-break on basis variable index.
            best_row, best_ratio = -1, np.inf
            for r in range(m):
                if tab[r, col] > _TOL:
                    ratio = tab[r, -1] / tab[r, col]
                    if ratio < best_ratio - _TOL or (
                        abs(ratio - best_ratio) <= _TOL
                        and best_row >= 0
                        and basis[r] < basis[best_row]
                    ):
                        best_row, best_ratio = r, ratio
            if best_row < 0:
                raise SolverError(
                    "LP is unbounded", kind="unbounded", backend="simplex"
                )
            SimplexSolver._pivot(tab, basis, best_row, col)

    def solve(self) -> tuple[np.ndarray, float]:
        """Return ``(x, objective)`` at an optimum (original variable space)."""
        a, b, c = self.a.copy(), self.b.copy(), self.c
        m, n = a.shape
        neg = b < 0
        a[neg] *= -1.0
        b = np.where(neg, -b, b)

        # Phase 1 tableau: [A | I_art | b], minimize sum of artificials.
        tab = np.zeros((m + 1, n + m + 1))
        tab[:m, :n] = a
        tab[:m, n : n + m] = np.eye(m)
        tab[:m, -1] = b
        basis = list(range(n, n + m))
        # Phase-1 objective row: reduced costs of min Σ artificials.
        tab[-1, :n] = -a.sum(axis=0)
        tab[-1, -1] = -b.sum()
        self._iterate(tab, basis, n + m)
        if tab[-1, -1] < -1e-7:
            raise SolverError(
                "LP is infeasible", kind="infeasible", backend="simplex"
            )

        # Drive leftover artificials out of the basis where possible.
        for r in range(m):
            if basis[r] >= n:
                for j in range(n):
                    if abs(tab[r, j]) > _TOL:
                        self._pivot(tab, basis, r, j)
                        break

        # Phase 2: replace objective row, zero out artificial columns.
        tab2 = np.zeros((m + 1, n + 1))
        tab2[:m, :n] = tab[:m, :n]
        tab2[:m, -1] = tab[:m, -1]
        tab2[-1, :n] = c
        for r in range(m):
            if basis[r] < n and abs(tab2[-1, basis[r]]) > _TOL:
                tab2[-1] -= tab2[-1, basis[r]] * tab2[r]
        self._iterate(tab2, basis, n)
        return self._finish(tab2, basis)

    def _finish(
        self, tab2: np.ndarray, basis: list[int]
    ) -> tuple[np.ndarray, float]:
        """Extract the solution and the duals from a final tableau."""
        m, n = self.a.shape
        c = self.c
        if self._slack_offset is not None and self._n_ub_rows:
            # Marginal of ub row i = -reduced_cost(slack_i): with
            # A_i·x + s_i = b_i the slack column is e_i, so its reduced
            # cost is -y_i where y = c_B B⁻¹; rows sign-flipped for a
            # negative rhs flip both the multiplier and the slack
            # coefficient, leaving the same formula.  Matches scipy's
            # ``ineqlin.marginals`` convention (≤ 0 when binding).
            rc = tab2[
                -1, self._slack_offset : self._slack_offset + self._n_ub_rows
            ]
            marg = -rc.copy()
            marg[np.abs(marg) <= _TOL] = 0.0
            self.marginals_ub = marg

        x = np.zeros(n)
        for r in range(m):
            if basis[r] < n:
                x[basis[r]] = tab2[r, -1]
        value = float(c @ x)

        if self._n_original is not None:
            x_orig = x[: self._n_original] + self._lower_shift
            return x_orig, value + self._objective_shift
        return x, value


def simplex_solve(lp: LinearProgram) -> LPSolution:
    """Solve ``lp`` on the dense tableau.

    Reports the marginals of the ``A_ub`` rows in the same order and
    sign convention as HiGHS; equality-row marginals are left out.
    """
    parts = lp.compile()
    solver = SimplexSolver.from_compiled(parts)
    x, value = solver.solve()
    return lp._solution(parts, value, x, solver.marginals_ub, None)

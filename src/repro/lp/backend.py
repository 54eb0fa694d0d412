"""Generic linear-program model and its HiGHS backend.

:class:`LinearProgram` is a small modelling layer over positional
columns: ``add_var``/``add_vars`` return column indices, constraints
name their columns by index, and the objective is minimized.  It
compiles to sparse arrays; ``solve()`` routes through the solver service
(:mod:`repro.solver.service`), which adds a content-addressed solve
cache and instrumentation around the one backend, HiGHS, called through
the bindings bundled with scipy (``scipy.optimize._highspy._core``).
The from-scratch simplex in :mod:`repro.verify.simplex` and scipy's
``linprog`` solve the same compiled form, as test oracles only.

A solution is read by position too: ``x[k]`` is column ``k`` and the
row marginals follow the compiled ``A_ub``/``A_eq`` row order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix, vstack

from repro.util.errors import SolverError

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError as exc:  # pragma: no cover - depends on the install
    raise ImportError(
        "the LP backend needs scipy>=1.15, the first release that bundles "
        f"HiGHS as scipy.optimize._highspy._core ({exc})"
    ) from exc

#: ``SolverError.kind`` per non-optimal HiGHS status, as ``linprog`` maps
#: them; any other status is ``"numerical"``.
_FAILURE_KINDS = {
    _highs.HighsModelStatus.kTimeLimit: "timeout",
    _highs.HighsModelStatus.kIterationLimit: "timeout",
    _highs.HighsModelStatus.kInfeasible: "infeasible",
    _highs.HighsModelStatus.kModelError: "infeasible",
    _highs.HighsModelStatus.kUnbounded: "unbounded",
}

#: Options of every HiGHS solve: quiet, dual simplex, no scaling, no
#: presolve.  LP (1)'s data are small integers (1, -g, -|C|, |C|·p_C,
#: the OPT ceilings), and on its g = 8 models dual simplex needs 30-45%
#: fewer iterations without HiGHS's equilibration scaling.
HIGHS_OPTIONS = {
    "output_flag": False,
    "log_to_console": False,
    "simplex_strategy": int(
        _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    ),
    "simplex_scale_strategy": 0,
    "presolve": "off",
}

#: Columns from which HiGHS runs its presolve.  LP (1) arrives already
#: reduced (:func:`repro.lp.nested_lp._build`), and presolve pays only on
#: models larger than every ``batch-dense`` one (<= ~9.4k columns).  The
#: rule counts columns, not rows: a Călinescu–Wang LP has ~17 rows per
#: column, and presolve doubles its time (docs/PERFORMANCE.md, "HiGHS
#: configuration").
PRESOLVE_MIN_COLS = 20_000

_SENSES = ("<=", ">=", "==")


class LPSolution:
    """Result of an LP solve, by position.

    Attributes
    ----------
    value:
        Objective value at the optimum.
    status:
        Backend status string (``"optimal"`` on success).
    x:
        Column values, one per column in ``add_var``/``add_vars`` order.
    marginals_ub / marginals_eq:
        Row marginals of the inequality / equality block as compiled
        (scipy's convention, ``dφ/db``), or ``None`` when the model has
        no such rows or the backend reports none.  ``>=`` rows are
        compiled negated into ``A_ub`` (``compile()["negated_ub"]``
        marks them), so their marginal is the negated dual of the row
        as modelled.
    """

    __slots__ = ("value", "status", "x", "marginals_ub", "marginals_eq")

    def __init__(
        self,
        value: float,
        status: str = "optimal",
        *,
        x: np.ndarray,
        marginals_ub: np.ndarray | None = None,
        marginals_eq: np.ndarray | None = None,
    ) -> None:
        self.value = value
        self.status = status
        self.x = x
        self.marginals_ub = marginals_ub
        self.marginals_eq = marginals_eq

    def __repr__(self) -> str:
        return (
            f"LPSolution(value={self.value!r}, status={self.status!r}, "
            f"columns={self.x.size})"
        )

    def copy(self) -> "LPSolution":
        """A copy that shares no array with this solution."""
        return LPSolution(
            self.value,
            self.status,
            x=self.x.copy(),
            marginals_ub=_copied(self.marginals_ub),
            marginals_eq=_copied(self.marginals_eq),
        )


def _copied(a: np.ndarray | None) -> np.ndarray | None:
    return None if a is None else np.array(a, dtype=float)


@dataclass
class _Constraint:
    coeffs: dict[int, float]
    sense: str  # "<=", ">=", "=="
    rhs: float


@dataclass
class _ConstraintBlock:
    """A bank of same-sense rows stored directly in CSR fragments.

    Produced by :meth:`LinearProgram.add_constraint_block`; the builders
    in :mod:`repro.lp.nested_lp` / :mod:`repro.lp.cw_lp` assemble whole
    constraint families as arrays and append them in one call instead of
    one dict per row.
    """

    data: np.ndarray  # nnz values, row-major
    indices: np.ndarray  # nnz column indices, row-major
    indptr: np.ndarray  # row k occupies data[indptr[k]:indptr[k+1]]
    sense: str  # "<=", ">=", "=="
    rhs: np.ndarray

    @property
    def nrows(self) -> int:
        return self.indptr.size - 1


class _CsrAccumulator:
    """Row-order-preserving CSR assembly over mixed dict rows and blocks.

    Dict rows accumulate in plain Python lists (cheap for the small
    hand-written models); blocks flush the pending lists and splice in
    as whole array segments, so bulk-built families never pay per-entry
    Python cost.  ``build`` concatenates everything in insertion order,
    reproducing exactly the matrix the historical per-row path built,
    with which rows were negated.
    """

    def __init__(self) -> None:
        self._segments: list[tuple] = []
        self._data: list[float] = []
        self._indices: list[int] = []
        self._lens: list[int] = []
        self._rhs: list[float] = []
        self._negated: list[bool] = []

    def row(self, con: _Constraint, negate: bool) -> None:
        if negate:
            for i, v in con.coeffs.items():
                self._indices.append(i)
                self._data.append(-v)
            self._rhs.append(-con.rhs)
        else:
            for i, v in con.coeffs.items():
                self._indices.append(i)
                self._data.append(v)
            self._rhs.append(con.rhs)
        self._lens.append(len(con.coeffs))
        self._negated.append(negate)

    def block(self, con: _ConstraintBlock, negate: bool) -> None:
        self._flush()
        self._segments.append(
            (
                -con.data if negate else con.data,
                con.indices,
                np.diff(con.indptr),
                -con.rhs if negate else con.rhs,
                np.full(con.nrows, negate),
            )
        )

    def _flush(self) -> None:
        if self._rhs:
            self._segments.append(
                (
                    np.asarray(self._data, dtype=float),
                    np.asarray(self._indices, dtype=np.int64),
                    np.asarray(self._lens, dtype=np.int64),
                    np.asarray(self._rhs, dtype=float),
                    np.asarray(self._negated, dtype=bool),
                )
            )
            self._data, self._indices = [], []
            self._lens, self._rhs, self._negated = [], [], []

    def build(self, n: int):
        """``(matrix, rhs, negated)``, all ``None`` without rows."""
        self._flush()
        if not self._segments:
            return None, None, None
        data, indices, lens, rhs, negated = (
            np.concatenate(parts) for parts in zip(*self._segments)
        )
        indptr = np.concatenate(([0], np.cumsum(lens)))
        mat = csr_matrix(
            (data, indices, indptr), shape=(len(rhs), n), dtype=float
        )
        return mat, np.asarray(rhs, dtype=float), negated


class LinearProgram:
    """A minimization LP over nonnegative (by default) columns.

    Columns are numbered in the order they are added; constraints refer
    to them by that index.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._objective: list[float] = []
        self._lower: list[float] = []
        self._upper: list[float] = []
        self._constraints: list[_Constraint | _ConstraintBlock] = []

    # -- modelling --------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self._objective)

    @property
    def num_constraints(self) -> int:
        return sum(
            con.nrows if isinstance(con, _ConstraintBlock) else 1
            for con in self._constraints
        )

    def add_var(
        self,
        *,
        objective: float = 0.0,
        lower: float = 0.0,
        upper: float = np.inf,
    ) -> int:
        """Add one column; returns its index."""
        self._objective.append(objective)
        self._lower.append(lower)
        self._upper.append(upper)
        return len(self._objective) - 1

    def add_vars(
        self,
        count: int,
        *,
        objective: float | Sequence[float] = 0.0,
        lower: float | Sequence[float] = 0.0,
        upper: float | Sequence[float] = np.inf,
    ) -> range:
        """Add ``count`` columns; returns their indices.

        Scalars broadcast over the batch; a sequence gives one value per
        column.  Raises before changing the model on a negative
        ``count`` or a sequence of the wrong length.
        """
        if count < 0:
            raise ValueError(f"cannot add {count} variables")

        def broadcast(value, what: str) -> list[float]:
            if isinstance(value, (int, float)):
                return [float(value)] * count
            out = np.asarray(value, dtype=float).reshape(-1).tolist()
            if len(out) != count:
                raise ValueError(
                    f"{what} has {len(out)} entries for {count} variables"
                )
            return out

        objectives = broadcast(objective, "objective")
        lowers = broadcast(lower, "lower")
        uppers = broadcast(upper, "upper")
        base = len(self._objective)
        self._objective.extend(objectives)
        self._lower.extend(lowers)
        self._upper.extend(uppers)
        return range(base, base + count)

    def add_constraint(
        self, coeffs: Mapping[int, float], sense: str, rhs: float
    ) -> None:
        """Add ``Σ coeffs[k]·x[k]  (sense)  rhs`` with sense in {<=, >=, ==}.

        ``coeffs`` maps column indices to coefficients; zero
        coefficients are dropped.  An index that is not a column raises
        before the model changes.
        """
        if sense not in _SENSES:
            raise ValueError(f"bad sense {sense!r}")
        n = self.num_vars
        for col in coeffs:
            if not (isinstance(col, (int, np.integer)) and 0 <= col < n):
                raise ValueError(
                    f"unknown column {col!r} in a constraint of {self.name!r}"
                )
        indexed = {int(col): c for col, c in coeffs.items() if c != 0.0}
        self._constraints.append(_Constraint(indexed, sense, float(rhs)))

    def add_constraint_block(
        self, data, indices, indptr, sense: str, rhs
    ) -> None:
        """Add a bank of same-sense rows as raw CSR fragments.

        ``data``/``indices``/``indptr`` describe the rows exactly as a
        ``csr_matrix`` would (``indptr`` has one more entry than rows);
        ``indices`` are column indices.  Rows compile in place,
        interleaved with ordinary :meth:`add_constraint` rows in call
        order, so a vectorized builder reproduces a per-row build
        bit-for-bit as long as it emits the same entries in the same
        order.
        """
        if sense not in _SENSES:
            raise ValueError(f"bad sense {sense!r}")
        data = np.ascontiguousarray(data, dtype=float)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        rhs = np.ascontiguousarray(rhs, dtype=float)
        nrows = rhs.size
        if rhs.shape != (nrows,):
            raise ValueError("rhs must be one-dimensional")
        if indptr.shape != (nrows + 1,):
            raise ValueError(
                f"indptr has {indptr.size} entries for {nrows} rows"
            )
        if indptr[0] != 0 or (np.diff(indptr) < 0).any():
            raise ValueError("indptr must start at 0 and be nondecreasing")
        nnz = int(indptr[-1])
        if data.shape != (nnz,) or indices.shape != (nnz,):
            raise ValueError(
                f"data/indices must have indptr[-1] = {nnz} entries"
            )
        if nnz and (
            int(indices.min()) < 0 or int(indices.max()) >= self.num_vars
        ):
            raise ValueError("column index out of range in constraint block")
        self._constraints.append(
            _ConstraintBlock(data, indices, indptr, sense, rhs)
        )

    # -- compilation --------------------------------------------------------

    def compile(self) -> dict:
        """Compile to ``linprog``'s arrays: ``>=`` rows negated into ``A_ub``.

        ``negated_ub`` marks those rows (a bool per ``A_ub`` row, or
        ``None`` without ``A_ub`` rows).
        """
        n = self.num_vars
        c = np.asarray(self._objective, dtype=float)
        acc_ub = _CsrAccumulator()
        acc_eq = _CsrAccumulator()
        for con in self._constraints:
            block = isinstance(con, _ConstraintBlock)
            if con.sense == "==":
                acc, negate = acc_eq, False
            else:
                acc, negate = acc_ub, con.sense == ">="
            if block:
                acc.block(con, negate)
            else:
                acc.row(con, negate)

        a_ub, b_ub, negated_ub = acc_ub.build(n)
        a_eq, b_eq, _ = acc_eq.build(n)
        bounds = np.empty((n, 2))
        bounds[:, 0] = self._lower
        bounds[:, 1] = self._upper
        return {
            "c": c,
            "A_ub": a_ub,
            "b_ub": b_ub,
            "A_eq": a_eq,
            "b_eq": b_eq,
            "bounds": bounds,
            "negated_ub": negated_ub,
        }

    # -- solving -----------------------------------------------------------

    def solve(self) -> LPSolution:
        """Solve through the solver service (cached, counted)."""
        from repro.solver.service import get_service

        return get_service().solve(self)

    def _solution(
        self, parts: dict, value: float, x, marginals_ub, marginals_eq
    ) -> LPSolution:
        """A backend's answer as an :class:`LPSolution`."""
        return LPSolution(
            float(value),
            x=np.asarray(x, dtype=float),
            marginals_ub=marginals_ub if parts["b_ub"] is not None else None,
            marginals_eq=marginals_eq if parts["b_eq"] is not None else None,
        )

    def _solve_highs(self, parts: dict) -> LPSolution:
        """Solve the compiled ``parts`` with HiGHS (the service's backend).

        HiGHS gets the rows ``A_ub`` then ``A_eq`` (as row-wise CSR),
        ``-inf <= row <= b_ub`` and ``b_eq <= row <= b_eq``, and the
        options :data:`HIGHS_OPTIONS`, with presolve on from
        :data:`PRESOLVE_MIN_COLS` columns.  The arrays go to ``passModel``
        as they are (no ``HighsLp``, no Python lists).  Each call runs a
        fresh solver object, so concurrent solves share no state.
        """
        c, bounds = parts["c"], parts["bounds"]
        b_ub = np.empty(0) if parts["b_ub"] is None else parts["b_ub"]
        b_eq = np.empty(0) if parts["b_eq"] is None else parts["b_eq"]
        mats = [a for a in (parts["A_ub"], parts["A_eq"]) if a is not None]
        if len(mats) == 2:
            a = vstack(mats, format="csr")
        else:
            a = mats[0] if mats else csr_matrix((0, c.size))
        num_col = c.size
        highs = _highs._Highs()
        presolve = "on" if num_col >= PRESOLVE_MIN_COLS else "off"
        for option, value in {**HIGHS_OPTIONS, "presolve": presolve}.items():
            if highs.setOptionValue(option, value) != _highs.HighsStatus.kOk:
                raise SolverError(
                    f"HiGHS rejected option {option}={value!r}",
                    model=self.name,
                    backend="highs",
                )
        # kHighsInf is IEEE infinity, so the bounds go in as compiled.
        status = highs.passModel(
            num_col,
            a.shape[0],
            a.nnz,
            int(_highs.MatrixFormat.kRowwise),
            int(_highs.ObjSense.kMinimize),
            0.0,
            c,
            np.ascontiguousarray(bounds[:, 0]),
            np.ascontiguousarray(bounds[:, 1]),
            np.concatenate((np.full(b_ub.size, -_highs.kHighsInf), b_eq)),
            np.concatenate((b_ub, b_eq)),
            a.indptr.astype(np.int32, copy=False),
            a.indices.astype(np.int32, copy=False),
            a.data,
            np.zeros(num_col, dtype=np.int32),  # every column continuous
        )
        if status == _highs.HighsStatus.kError:
            status = _highs.HighsModelStatus.kModelError
        else:
            highs.run()
            status = highs.getModelStatus()
        if status != _highs.HighsModelStatus.kOptimal:
            raise SolverError(
                f"LP {self.name!r} failed: {highs.modelStatusToString(status)}",
                kind=_FAILURE_KINDS.get(status, "numerical"),
                model=self.name,
                backend="highs",
                num_vars=self.num_vars,
                num_constraints=self.num_constraints,
            )
        solution = highs.getSolution()
        duals = np.array(solution.row_dual)
        return self._solution(
            parts,
            highs.getInfo().objective_function_value,
            solution.col_value,
            duals[: b_ub.size],
            duals[b_ub.size :],
        )

"""Generic linear-program model and its HiGHS backend.

:class:`LinearProgram` is a small modelling layer: named variables, linear
constraints, minimization objective.  It compiles to sparse arrays;
``solve()`` routes through the solver service
(:mod:`repro.solver.service`), which adds a content-addressed solve
cache and instrumentation around the one backend, HiGHS, called through
the bindings bundled with scipy (``scipy.optimize._highspy._core``).
The from-scratch simplex in :mod:`repro.verify.simplex` and scipy's
``linprog`` solve the same compiled form, as test oracles only.
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


class LPSolution:
    """Result of an LP solve.

    A backend answer carries the solution *vector* ``x`` (one entry per
    column, in :meth:`LinearProgram.variable_names` order) and the row
    marginals as arrays, bound to the model's column names and row
    labels.  The by-name views :attr:`values` and :attr:`duals` are plain
    dicts built from them on first read, so a caller that reads neither
    (LP (1) reads ``x`` by column index) never builds them.  A solution
    may also be given directly as a ``values`` (and ``duals``) dict; its
    ``x`` is then ``None``.

    Attributes
    ----------
    value:
        Objective value at the optimum.
    status:
        Backend status string (``"optimal"`` on success).
    x:
        Column values, or ``None`` for a solution given as dicts.
    marginals_ub / marginals_eq:
        Row marginals of the inequality / equality block as compiled
        (scipy's convention, ``dφ/db``), or ``None`` when the backend
        reports none.
    values:
        Variable name → optimal value.
    duals:
        Constraint label → dual value.  Duals of ``>=`` rows are
        reported for the row as modelled (nonnegative when binding), so
        weak duality reads ``Σ dual·rhs ≤ primal value`` for
        covering-style models.  The simplex oracle reports inequality
        duals under the same labels and convention and omits
        equality-row duals.  Unlabelled rows are left out.
    """

    __slots__ = (
        "value",
        "status",
        "x",
        "marginals_ub",
        "marginals_eq",
        "_names",
        "_meta_ub",
        "_meta_eq",
        "_values",
        "_duals",
    )

    def __init__(
        self,
        value: float,
        values: Mapping[str, float] | None = None,
        status: str = "optimal",
        duals: Mapping[str, float] | None = None,
        *,
        x: np.ndarray | None = None,
        names: Sequence[str] = (),
        marginals_ub: np.ndarray | None = None,
        marginals_eq: np.ndarray | None = None,
        meta_ub: Sequence[tuple[str, str]] = (),
        meta_eq: Sequence[str] = (),
    ) -> None:
        if x is not None and (values is not None or duals is not None):
            raise ValueError("give a solution as x or as dicts, not both")
        self.value = value
        self.status = status
        self.x = x
        self.marginals_ub = marginals_ub
        self.marginals_eq = marginals_eq
        self._names = names
        self._meta_ub = meta_ub
        self._meta_eq = meta_eq
        self._values = values
        self._duals = duals

    def __repr__(self) -> str:
        size = len(self.values) if self.x is None else self.x.size
        return (
            f"LPSolution(value={self.value!r}, status={self.status!r}, "
            f"columns={size})"
        )

    @property
    def values(self) -> Mapping[str, float]:
        if self._values is None:
            x = () if self.x is None else self.x.tolist()
            self._values = dict(zip(self._names, x))
        return self._values

    @property
    def duals(self) -> Mapping[str, float]:
        if self._duals is None:
            duals: dict[str, float] = {}
            if self.marginals_ub is not None:
                # ``>=`` rows were negated when compiled, so their dual
                # flips sign back: nonnegative when binding.
                for (label, sense), marg in zip(
                    self._meta_ub, self.marginals_ub.tolist()
                ):
                    if label:
                        duals[label] = -marg if sense == ">=" else marg
            if self.marginals_eq is not None:
                for label, marg in zip(
                    self._meta_eq, self.marginals_eq.tolist()
                ):
                    if label:
                        duals[label] = marg
            self._duals = duals
        return self._duals

    def copy(
        self,
        names: Sequence[str] = (),
        meta_ub: Sequence[tuple[str, str]] = (),
        meta_eq: Sequence[str] = (),
    ) -> "LPSolution":
        """A copy that shares no mutable state with this solution.

        The copy of a vector solution holds copies of ``x`` and the
        marginals, bound to the given column names and row labels (by
        default none: only the arrays are kept).  A solution given as
        dicts is copied as dicts.
        """
        if self.x is None:
            return LPSolution(
                self.value, dict(self.values), self.status, dict(self.duals)
            )
        return LPSolution(
            self.value,
            status=self.status,
            x=self.x.copy(),
            names=names,
            marginals_ub=_copied(self.marginals_ub),
            marginals_eq=_copied(self.marginals_eq),
            meta_ub=meta_ub,
            meta_eq=meta_eq,
        )

    def __getitem__(self, name: str) -> float:
        return self.values[name]

    def get(self, name: str, default: float = 0.0) -> float:
        return self.values.get(name, default)

    def dual(self, label: str, default: float = 0.0) -> float:
        return self.duals.get(label, default)


def _copied(a: np.ndarray | None) -> np.ndarray | None:
    return None if a is None else np.array(a, dtype=float)


@dataclass
class _Constraint:
    coeffs: dict[int, float]
    sense: str  # "<=", ">=", "=="
    rhs: float
    label: str


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
    labels: tuple[str, ...]

    @property
    def nrows(self) -> int:
        return len(self.labels)


class _CsrAccumulator:
    """Row-order-preserving CSR assembly over mixed dict rows and blocks.

    Dict rows accumulate in plain Python lists (cheap for the small
    hand-written models); blocks flush the pending lists and splice in
    as whole array segments, so bulk-built families never pay per-entry
    Python cost.  ``build`` concatenates everything in insertion order,
    reproducing exactly the matrix the historical per-row path built.
    """

    def __init__(self) -> None:
        self._segments: list[tuple] = []
        self._data: list[float] = []
        self._indices: list[int] = []
        self._lens: list[int] = []
        self._rhs: list[float] = []

    def row(self, coeffs: dict[int, float], rhs: float, negate: bool) -> None:
        if negate:
            for i, v in coeffs.items():
                self._indices.append(i)
                self._data.append(-v)
            self._rhs.append(-rhs)
        else:
            for i, v in coeffs.items():
                self._indices.append(i)
                self._data.append(v)
            self._rhs.append(rhs)
        self._lens.append(len(coeffs))

    def block(self, con: _ConstraintBlock, negate: bool) -> None:
        self._flush()
        lens = np.diff(con.indptr)
        self._segments.append(
            (
                -con.data if negate else con.data,
                con.indices,
                lens,
                -con.rhs if negate else con.rhs,
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
                )
            )
            self._data, self._indices = [], []
            self._lens, self._rhs = [], []

    def build(self, n: int):
        self._flush()
        if not self._segments:
            return None, None
        data = np.concatenate([s[0] for s in self._segments])
        indices = np.concatenate([s[1] for s in self._segments])
        lens = np.concatenate([s[2] for s in self._segments])
        rhs = np.concatenate([s[3] for s in self._segments])
        indptr = np.concatenate(([0], np.cumsum(lens)))
        mat = csr_matrix(
            (data, indices, indptr), shape=(len(rhs), n), dtype=float
        )
        return mat, np.asarray(rhs, dtype=float)


class LinearProgram:
    """A minimization LP over named nonnegative (by default) variables."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._var_index: dict[str, int] = {}
        self._objective: list[float] = []
        self._lower: list[float] = []
        self._upper: list[float] = []
        self._constraints: list[_Constraint] = []

    # -- modelling --------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self._var_index)

    @property
    def num_constraints(self) -> int:
        return sum(
            con.nrows if isinstance(con, _ConstraintBlock) else 1
            for con in self._constraints
        )

    def add_var(
        self,
        name: str,
        *,
        objective: float = 0.0,
        lower: float = 0.0,
        upper: float = np.inf,
    ) -> str:
        """Declare a variable; returns its name for convenience."""
        if name in self._var_index:
            raise ValueError(f"duplicate variable {name!r}")
        self._var_index[name] = len(self._objective)
        self._objective.append(objective)
        self._lower.append(lower)
        self._upper.append(upper)
        return name

    def add_vars(
        self,
        names: Sequence[str],
        *,
        objective: float | Sequence[float] = 0.0,
        lower: float | Sequence[float] = 0.0,
        upper: float | Sequence[float] = np.inf,
    ) -> list[str]:
        """Bulk :meth:`add_var`; scalars broadcast over the batch.

        Column order follows ``names`` order, so a model built with one
        ``add_vars`` call compiles identically to the equivalent
        ``add_var`` loop.  Raises before mutating anything on duplicate
        names (within the batch or against existing variables) or on
        length-mismatched per-variable sequences.
        """
        names = [str(name) for name in names]
        count = len(names)
        if len(set(names)) != count:
            raise ValueError("duplicate variable in add_vars batch")
        for name in names:
            if name in self._var_index:
                raise ValueError(f"duplicate variable {name!r}")

        def broadcast(value, what: str) -> list[float]:
            if isinstance(value, (int, float)):
                return [float(value)] * count
            out = [float(v) for v in value]
            if len(out) != count:
                raise ValueError(
                    f"{what} has {len(out)} entries for {count} variables"
                )
            return out

        objectives = broadcast(objective, "objective")
        lowers = broadcast(lower, "lower")
        uppers = broadcast(upper, "upper")
        base = len(self._objective)
        for k, name in enumerate(names):
            self._var_index[name] = base + k
        self._objective.extend(objectives)
        self._lower.extend(lowers)
        self._upper.extend(uppers)
        return names

    def add_constraint(
        self,
        coeffs: Mapping[str, float],
        sense: str,
        rhs: float,
        label: str = "",
    ) -> None:
        """Add ``Σ coeffs[v]·v  (sense)  rhs`` with sense in {<=, >=, ==}."""
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"bad sense {sense!r}")
        indexed: dict[int, float] = {}
        for var, c in coeffs.items():
            if c == 0.0:
                continue
            try:
                idx = self._var_index[var]
            except KeyError:
                # `from None` keeps the traceback to one frame with a
                # plain (not repr-quoted) message; the partially built
                # `indexed` dict is discarded, so a failed call leaves
                # the model unchanged.
                raise ValueError(
                    f"unknown variable {var!r} in constraint {label!r}"
                ) from None
            indexed[idx] = indexed.get(idx, 0.0) + c
        self._constraints.append(_Constraint(indexed, sense, float(rhs), label))

    def add_constraint_block(
        self,
        data,
        indices,
        indptr,
        sense: str,
        rhs,
        labels: Sequence[str],
    ) -> None:
        """Add a bank of same-sense rows as raw CSR fragments.

        ``data``/``indices``/``indptr`` describe the rows exactly as a
        ``csr_matrix`` would (``indptr`` has one more entry than rows);
        ``indices`` are *column* indices into the current variable order
        (``add_var`` / ``add_vars`` insertion order).  Rows compile in
        place, interleaved with ordinary :meth:`add_constraint` rows in
        call order, so a vectorized builder reproduces the historical
        matrix bit-for-bit as long as it emits the same entries in the
        same order.
        """
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"bad sense {sense!r}")
        data = np.ascontiguousarray(data, dtype=float)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        rhs = np.ascontiguousarray(rhs, dtype=float)
        labels = tuple(str(lab) for lab in labels)
        nrows = len(labels)
        if indptr.shape != (nrows + 1,):
            raise ValueError(
                f"indptr has {indptr.size} entries for {nrows} rows"
            )
        if rhs.shape != (nrows,):
            raise ValueError(f"rhs has {rhs.size} entries for {nrows} rows")
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
            _ConstraintBlock(data, indices, indptr, sense, rhs, labels)
        )

    # -- compilation --------------------------------------------------------

    def compile(self) -> dict:
        """Compile to ``linprog``'s arrays: ``>=`` rows negated into ``A_ub``."""
        n = self.num_vars
        c = np.asarray(self._objective, dtype=float)
        acc_ub = _CsrAccumulator()
        acc_eq = _CsrAccumulator()
        meta_ub: list[tuple[str, str]] = []  # (label, original sense)
        meta_eq: list[str] = []
        for con in self._constraints:
            if isinstance(con, _ConstraintBlock):
                if con.sense == "<=":
                    acc_ub.block(con, negate=False)
                    meta_ub.extend((lab, "<=") for lab in con.labels)
                elif con.sense == ">=":
                    acc_ub.block(con, negate=True)
                    meta_ub.extend((lab, ">=") for lab in con.labels)
                else:
                    acc_eq.block(con, negate=False)
                    meta_eq.extend(con.labels)
            elif con.sense == "<=":
                acc_ub.row(con.coeffs, con.rhs, negate=False)
                meta_ub.append((con.label, "<="))
            elif con.sense == ">=":
                acc_ub.row(con.coeffs, con.rhs, negate=True)
                meta_ub.append((con.label, ">="))
            else:
                acc_eq.row(con.coeffs, con.rhs, negate=False)
                meta_eq.append(con.label)

        a_ub, b_ub = acc_ub.build(n)
        a_eq, b_eq = acc_eq.build(n)
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
            "meta_ub": meta_ub,
            "meta_eq": meta_eq,
        }

    # -- solving -----------------------------------------------------------

    def solve(self) -> LPSolution:
        """Solve through the solver service (cached, counted)."""
        from repro.solver.service import get_service

        return get_service().solve(self)

    def _solution(
        self, parts: dict, value: float, x, marginals_ub, marginals_eq
    ) -> LPSolution:
        """A backend's answer, bound to this model's names and labels."""
        return LPSolution(
            float(value),
            status="optimal",
            x=np.asarray(x, dtype=float),
            names=self.variable_names(),
            marginals_ub=marginals_ub if parts["meta_ub"] else None,
            marginals_eq=marginals_eq if parts["meta_eq"] else None,
            meta_ub=parts["meta_ub"],
            meta_eq=parts["meta_eq"],
        )

    def _solve_highs(self, parts: dict) -> LPSolution:
        """Solve the compiled ``parts`` with HiGHS (the service's backend).

        HiGHS gets the model ``linprog(method="highs")`` would give it:
        the rows ``A_ub`` then ``A_eq`` (as row-wise CSR), ``-inf <= row
        <= b_ub`` and ``b_eq <= row <= b_eq``, presolve on, dual simplex,
        no output.  Each call runs a fresh solver object, so concurrent
        solves share no state.
        """
        c, bounds = parts["c"], parts["bounds"]
        b_ub = np.empty(0) if parts["b_ub"] is None else parts["b_ub"]
        b_eq = np.empty(0) if parts["b_eq"] is None else parts["b_eq"]
        mats = [a for a in (parts["A_ub"], parts["A_eq"]) if a is not None]
        a = vstack(mats, format="csr") if mats else csr_matrix((0, c.size))
        lp = _highs.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = c.size
        lp.num_row_ = lp.a_matrix_.num_row_ = a.shape[0]
        lp.col_cost_ = c
        lp.col_lower_, lp.col_upper_ = bounds[:, 0], bounds[:, 1]
        # kHighsInf is IEEE infinity, so the bounds go in as compiled.
        lp.row_lower_ = np.concatenate((np.full(b_ub.size, -_highs.kHighsInf), b_eq))
        lp.row_upper_ = np.concatenate((b_ub, b_eq))
        lp.a_matrix_.format_ = _highs.MatrixFormat.kRowwise
        # Integer vectors convert far faster from lists than from arrays.
        lp.a_matrix_.start_ = a.indptr.tolist()
        lp.a_matrix_.index_ = a.indices.tolist()
        lp.a_matrix_.value_ = a.data
        highs = _highs._Highs()
        highs.setOptionValue("output_flag", False)
        highs.setOptionValue("log_to_console", False)
        highs.setOptionValue("presolve", "on")
        highs.setOptionValue(
            "simplex_strategy",
            int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
        )
        if highs.passModel(lp) == _highs.HighsStatus.kError:
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

    # -- introspection --------------------------------------------------------

    def variable_names(self) -> Sequence[str]:
        return tuple(self._var_index)

    def constraint_labels(self) -> Sequence[str]:
        labels: list[str] = []
        for con in self._constraints:
            if isinstance(con, _ConstraintBlock):
                labels.extend(con.labels)
            else:
                labels.append(con.label)
        return tuple(labels)

"""Generic linear-program model and its HiGHS backend.

:class:`LinearProgram` is a small modelling layer: named variables, linear
constraints, minimization objective.  It compiles to sparse arrays;
``solve()`` routes through the solver service
(:mod:`repro.solver.service`), which adds a content-addressed solve
cache and instrumentation around the one backend, HiGHS, called through
the bindings bundled with scipy (``scipy.optimize._highspy._core``).
The from-scratch simplex in :mod:`repro.verify.simplex` and scipy's
``linprog`` solve the same compiled form, as test oracles only.

Column names and row labels may be given as strings or as a
:class:`NameFamily`: the layout arrays and the formatter that produce
them.  A family is formatted only when its names are read, so a bulk
builder (:mod:`repro.lp.nested_lp`) whose solve reads values by column
index never formats a string.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Mapping, NamedTuple, Sequence

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


class NameFamily:
    """The names of a run of columns or rows, formatted when first read.

    ``format(*arrays)`` returns the ``count`` names in order; ``arrays``
    are numpy arrays or plain ints.
    """

    __slots__ = ("count", "arrays", "_format", "_names")

    def __init__(
        self, count: int, format: Callable[..., Sequence[str]], *arrays
    ) -> None:
        self.count = count
        self.arrays = arrays
        self._format = format
        self._names: tuple[str, ...] | None = None

    def names(self) -> tuple[str, ...]:
        if self._names is None:
            names = tuple(self._format(*self.arrays))
            if len(names) != self.count:
                raise ValueError(
                    f"name family formatted {len(names)} names for "
                    f"{self.count} entries"
                )
            self._names = names
        return self._names


class Names:
    """Column names or row labels in segments: tuples of strings and
    :class:`NameFamily` runs, joined on first read of :meth:`all`."""

    __slots__ = ("segments", "_all")

    def __init__(self, segments: Sequence[tuple[str, ...] | NameFamily] = ()) -> None:
        self.segments = tuple(segments)
        self._all: tuple[str, ...] | None = None

    def all(self) -> tuple[str, ...]:
        if self._all is None:
            self._all = tuple(
                chain.from_iterable(
                    seg.names() if isinstance(seg, NameFamily) else seg
                    for seg in self.segments
                )
            )
        return self._all


class ModelNames(NamedTuple):
    """What a solution's by-name views read: the column names, the row
    labels of the compiled ``A_ub`` and ``A_eq`` blocks, and which
    ``A_ub`` rows are negated ``>=`` rows."""

    columns: Names = Names()
    labels_ub: Names = Names()
    negated_ub: np.ndarray | None = None
    labels_eq: Names = Names()


class LPSolution:
    """Result of an LP solve.

    A solution is the solution *vector* ``x`` (one entry per column, in
    :meth:`LinearProgram.variable_names` order) and the row marginals as
    arrays, bound to the model's :class:`ModelNames`.  The by-name views
    :attr:`values` and :attr:`duals` are plain dicts built from them on
    first read, and the names themselves are formatted only then, so a
    caller that reads neither (LP (1) reads ``x`` by column index) never
    builds them.

    Attributes
    ----------
    value:
        Objective value at the optimum.
    status:
        Backend status string (``"optimal"`` on success).
    x:
        Column values.
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
        "_values",
        "_duals",
    )

    def __init__(
        self,
        value: float,
        status: str = "optimal",
        *,
        x: np.ndarray,
        names: ModelNames = ModelNames(),
        marginals_ub: np.ndarray | None = None,
        marginals_eq: np.ndarray | None = None,
    ) -> None:
        self.value = value
        self.status = status
        self.x = x
        self.marginals_ub = marginals_ub
        self.marginals_eq = marginals_eq
        self._names = names
        self._values: dict[str, float] | None = None
        self._duals: dict[str, float] | None = None

    def __repr__(self) -> str:
        return (
            f"LPSolution(value={self.value!r}, status={self.status!r}, "
            f"columns={self.x.size})"
        )

    @property
    def values(self) -> Mapping[str, float]:
        if self._values is None:
            self._values = dict(zip(self._names.columns.all(), self.x.tolist()))
        return self._values

    @property
    def duals(self) -> Mapping[str, float]:
        if self._duals is None:
            names = self._names
            duals: dict[str, float] = {}
            if self.marginals_ub is not None:
                # ``>=`` rows were negated when compiled, so their dual
                # flips sign back: nonnegative when binding.
                margs = self.marginals_ub
                if names.negated_ub is not None:
                    margs = np.where(names.negated_ub, -margs, margs)
                for label, marg in zip(names.labels_ub.all(), margs.tolist()):
                    if label:
                        duals[label] = marg
            if self.marginals_eq is not None:
                for label, marg in zip(
                    names.labels_eq.all(), self.marginals_eq.tolist()
                ):
                    if label:
                        duals[label] = marg
            self._duals = duals
        return self._duals

    def copy(self, names: ModelNames = ModelNames()) -> "LPSolution":
        """A copy that shares no mutable state with this solution: copies
        of ``x`` and the marginals, bound to the given names (by default
        none: only the arrays are kept)."""
        return LPSolution(
            self.value,
            self.status,
            x=self.x.copy(),
            names=names,
            marginals_ub=_copied(self.marginals_ub),
            marginals_eq=_copied(self.marginals_eq),
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
    labels: tuple[str, ...] | NameFamily

    @property
    def nrows(self) -> int:
        return self.indptr.size - 1


class _Segments:
    """Names appended one at a time or as whole runs, kept as a list of
    segments: runs as given, single names gathered into tuples."""

    def __init__(self) -> None:
        self._done: list[tuple[str, ...] | NameFamily] = []
        self._pending: list[str] = []
        self._names: Names | None = None

    def one(self, name: str) -> None:
        self._pending.append(name)
        self._names = None

    def run(self, names: tuple[str, ...] | NameFamily) -> None:
        self._flush()
        self._done.append(names)
        self._names = None

    def _flush(self) -> None:
        if self._pending:
            self._done.append(tuple(self._pending))
            self._pending = []

    def names(self) -> Names:
        """The names so far; later appends leave the result unchanged."""
        if self._names is None:
            self._flush()
            self._names = Names(self._done)
        return self._names


class _CsrAccumulator:
    """Row-order-preserving CSR assembly over mixed dict rows and blocks.

    Dict rows accumulate in plain Python lists (cheap for the small
    hand-written models); blocks flush the pending lists and splice in
    as whole array segments, so bulk-built families never pay per-entry
    Python cost.  ``build`` concatenates everything in insertion order,
    reproducing exactly the matrix the historical per-row path built,
    with the rows' labels and which rows were negated.
    """

    def __init__(self) -> None:
        self._segments: list[tuple] = []
        self._data: list[float] = []
        self._indices: list[int] = []
        self._lens: list[int] = []
        self._rhs: list[float] = []
        self._negated: list[bool] = []
        self.labels = _Segments()

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
        self.labels.one(con.label)

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
        self.labels.run(con.labels)

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
    """A minimization LP over named nonnegative (by default) variables."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._names = _Segments()
        # Name → column; ``None`` until a lookup needs it once a name
        # family was added (a family is not formatted to index it).
        self._var_index: dict[str, int] | None = {}
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

    def _index(self) -> dict[str, int]:
        """Name → column, formatting the name families on first use."""
        if self._var_index is None:
            names = self.variable_names()
            index = {name: k for k, name in enumerate(names)}
            if len(index) != len(names):
                raise ValueError(f"duplicate variable names in {self.name!r}")
            self._var_index = index
        return self._var_index

    def add_var(
        self,
        name: str,
        *,
        objective: float = 0.0,
        lower: float = 0.0,
        upper: float = np.inf,
    ) -> str:
        """Declare a variable; returns its name for convenience."""
        index = self._index()
        if name in index:
            raise ValueError(f"duplicate variable {name!r}")
        index[name] = len(self._objective)
        self._names.one(name)
        self._objective.append(objective)
        self._lower.append(lower)
        self._upper.append(upper)
        return name

    def add_vars(
        self,
        names: Sequence[str] | NameFamily,
        *,
        objective: float | Sequence[float] = 0.0,
        lower: float | Sequence[float] = 0.0,
        upper: float | Sequence[float] = np.inf,
    ) -> Sequence[str] | NameFamily:
        """Bulk :meth:`add_var`; scalars broadcast over the batch.

        Column order follows ``names`` order, so a model built with one
        ``add_vars`` call compiles identically to the equivalent
        ``add_var`` loop.  Raises before mutating anything on duplicate
        names (within the batch or against existing variables) or on
        length-mismatched per-variable sequences.  A :class:`NameFamily`
        is neither formatted nor checked for duplicates here: its
        builder makes its names unique, and a duplicate surfaces at the
        first lookup by name.
        """
        if isinstance(names, NameFamily):
            count = names.count
        else:
            names = tuple(str(name) for name in names)
            count = len(names)
            if len(set(names)) != count:
                raise ValueError("duplicate variable in add_vars batch")
            index = self._index()
            for name in names:
                if name in index:
                    raise ValueError(f"duplicate variable {name!r}")

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
        if isinstance(names, NameFamily):
            self._var_index = None
        else:
            for k, name in enumerate(names):
                self._var_index[name] = base + k
        self._names.run(names)
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
        var_index = self._index()
        indexed: dict[int, float] = {}
        for var, c in coeffs.items():
            if c == 0.0:
                continue
            try:
                idx = var_index[var]
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
        labels: Sequence[str] | NameFamily,
    ) -> None:
        """Add a bank of same-sense rows as raw CSR fragments.

        ``data``/``indices``/``indptr`` describe the rows exactly as a
        ``csr_matrix`` would (``indptr`` has one more entry than rows);
        ``indices`` are *column* indices into the current variable order
        (``add_var`` / ``add_vars`` insertion order).  Rows compile in
        place, interleaved with ordinary :meth:`add_constraint` rows in
        call order, so a vectorized builder reproduces the historical
        matrix bit-for-bit as long as it emits the same entries in the
        same order.  ``labels`` may be a :class:`NameFamily`, formatted
        only when the labels are read.
        """
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"bad sense {sense!r}")
        data = np.ascontiguousarray(data, dtype=float)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        rhs = np.ascontiguousarray(rhs, dtype=float)
        if isinstance(labels, NameFamily):
            nrows = labels.count
        else:
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
        """Compile to ``linprog``'s arrays: ``>=`` rows negated into ``A_ub``.

        ``names`` is the :class:`ModelNames` a solution of the compiled
        model is bound to; compiling formats no name family.
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
            "names": ModelNames(
                self._names.names(),
                acc_ub.labels.names(),
                negated_ub,
                acc_eq.labels.names(),
            ),
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
            x=np.asarray(x, dtype=float),
            names=parts["names"],
            marginals_ub=marginals_ub if parts["b_ub"] is not None else None,
            marginals_eq=marginals_eq if parts["b_eq"] is not None else None,
        )

    def _solve_highs(self, parts: dict) -> LPSolution:
        """Solve the compiled ``parts`` with HiGHS (the service's backend).

        HiGHS gets the model ``linprog(method="highs-ds",
        options={"presolve": False})`` would give it: the rows ``A_ub``
        then ``A_eq`` (as row-wise CSR), ``-inf <= row <= b_ub`` and
        ``b_eq <= row <= b_eq``, dual simplex, no output, presolve off
        (LP (1) arrives already reduced, see
        :func:`repro.lp.nested_lp._build`, and a presolve pass costs more
        than the little it would still find).  The arrays go to
        ``passModel`` as they are (no ``HighsLp``, no Python lists).
        Each call runs a fresh solver object, so concurrent solves share
        no state.
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
        highs.setOptionValue("output_flag", False)
        highs.setOptionValue("log_to_console", False)
        highs.setOptionValue("presolve", "off")
        highs.setOptionValue(
            "simplex_strategy",
            int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
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

    # -- introspection --------------------------------------------------------

    def variable_names(self) -> Sequence[str]:
        return self._names.names().all()

    def constraint_labels(self) -> Sequence[str]:
        labels = _Segments()
        for con in self._constraints:
            if isinstance(con, _ConstraintBlock):
                labels.run(con.labels)
            else:
                labels.one(con.label)
        return labels.names().all()

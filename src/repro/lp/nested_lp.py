"""The paper's strengthened tree LP — LP (1) of Section 3.1.

Variables: ``x(i)`` = fractional open slots in node ``i``'s exclusive
region; ``y(i, j)`` = units of job ``j`` placed in node ``i`` (only for
``i ∈ Des(k(j))``).  Constraints (2)–(6) are the natural tree relaxation;
the *ceiling constraints* (7)–(8) force ``x(Des(i)) ≥ 2`` (resp. 3) when
no 1-slot (resp. 2-slot) schedule of the subtree exists — the key
strengthening that breaks the factor-2 barrier on nested instances.

LP (1) sees a job only through ``(k(j), p_j)``, so jobs sharing both are
interchangeable.  The model is built over these *job classes*: a class
``C`` of ``c`` jobs has one column ``Y(i, C)`` per ``i ∈ Des(k)`` and the
rows ``Y(i, C) ≤ c·x(i)`` (spread), ``Σ_i Y(i, C) ≥ c·p`` (volume) and
``Σ_C Y(i, C) ≤ g·x(i)`` (capacity).  Summing a per-job solution over a
class gives a class solution, and ``y(i, j) = Y(i, C)/c`` gives a per-job
solution back with the same ``x``, so both models have the same optimum
and the same feasible ``x``.

The model is positional, like every :class:`~repro.lp.backend.LinearProgram`:
``x(i)`` is column ``i``, the ``Y`` columns follow class-major
(:class:`JobClasses`), and rows are read back by their compiled order.

HiGHS gets the class model already presolved (:func:`_build`), so its
own presolve, which would find almost nothing left, runs only on large
models (:data:`repro.lp.backend.PRESOLVE_MIN_COLS`).  Every rule
keeps the feasible ``(x, Y)`` region of LP (1) over ``Des(k_C)``, ``c``
and ``p`` being a class's size and processing time:

* the length rows (4) are the bounds ``x(i) ≤ L(i)``, and every
  ``Y(i, C) ≤ c·L(i)`` (spread and length imply it);
* a volume row (2) over one column is that column's lower bound ``c·p``;
  spread then gives ``x(i) ≥ p``, so ``x(i)``'s lower bound is the
  largest such ``p`` at ``i``, and ``x(i)`` is *fixed* where that
  reaches ``L(i)`` (every rigid leaf of the canonical form);
* a capacity row (3) only where ``Σ_{C∋i} c > g`` — otherwise the spread
  rows sum to it;
* a spread row (5) only at nodes that are not fixed (there the column
  bound says it), and only where ``c < g`` or the node has no capacity
  row (``Y ≤ Σ Y ≤ g·x ≤ c·x`` otherwise);
* a ceiling row (7)–(8) only where the ``x`` lower bounds over
  ``Des(i)`` sum to less than ``ω_i``; its columns are ``Des⁺(i)``;
* no ``Y`` columns at nodes with ``L(i) = 0``, where ``x(i) = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.opt_thresholds import OptThresholds, compute_thresholds
from repro.lp.backend import LinearProgram, LPSolution
from repro.tree.canonical import CanonicalInstance
from repro.util.errors import SolverError
from repro.util.numeric import snap_vector


class NestedLPSolution:
    """Solution of LP (1) on a canonical instance.

    ``x`` is indexed by tree node, its values snapped to integers within
    tolerance.  A solved model keeps ``y`` in its class columns:
    ``share[t] = Y(i, C)/c`` for the ``Y`` column ``t = (i, C)`` of
    ``classes``.  :attr:`y` is the dense per-job ``(m, n_jobs)`` array
    indexed by (node, position of job in ``instance.jobs``), each class's
    ``Y`` split evenly over its jobs; it is built on first read, which
    no stage of :func:`~repro.core.algorithm.solve_nested` does.  A
    solution may instead be given with its per-job ``y``.
    """

    def __init__(
        self,
        value: float,
        x: np.ndarray,
        y: np.ndarray | None = None,
        *,
        thresholds: OptThresholds,
        classes: JobClasses | None = None,
        share: np.ndarray | None = None,
    ) -> None:
        if (y is None) == (classes is None or share is None):
            raise ValueError("give y either per job or as class columns")
        self.value = value
        self.x = x
        self.thresholds = thresholds
        self.classes = classes
        self.share = share
        self._y = y

    @property
    def y(self) -> np.ndarray:
        if self._y is None:
            self._y = self.classes.scatter(self.share, self.x.size)
        return self._y


@dataclass(frozen=True)
class JobClasses:
    """The jobs of a canonical instance grouped by ``(k(j), p_j)``.

    Classes are numbered in order of first appearance in
    ``instance.jobs``.  Class ``C`` owns the ``Y(i, C)`` columns for
    ``i ∈ Des⁺(k_C) = Des(k_C) ∩ {L > 0}`` (preorder): at a node with
    ``L(i) = 0`` the length bound forces ``x(i) = 0``, so every ``Y``
    there is 0 and has no column.  The model lays the columns out
    class-major after the ``m`` x columns.

    Attributes
    ----------
    keys:
        ``(k, p)`` per class.
    sizes:
        Jobs per class (``c``).
    job_class:
        Class of each job position in ``instance.jobs``.
    col_node / col_class:
        Node and class of each ``Y`` column, in column order.
    lengths:
        ``L(i)`` per node, as floats.
    positive / des_lo / des_hi:
        The positive-length nodes in preorder, and per node ``i`` the
        range ``positive[des_lo[i]:des_hi[i]]``, which is ``Des⁺(i)``.
    """

    keys: tuple[tuple[int, int], ...]
    sizes: np.ndarray
    job_class: np.ndarray
    col_node: np.ndarray
    col_class: np.ndarray
    lengths: np.ndarray
    positive: np.ndarray
    des_lo: np.ndarray
    des_hi: np.ndarray

    @property
    def num_columns(self) -> int:
        """Number of ``Y`` columns, ``Σ_C |Des⁺(k_C)|``."""
        return int(self.col_node.size)

    def scatter(self, share: np.ndarray, m: int) -> np.ndarray:
        """Per-job ``(m, n_jobs)`` array: ``y(i, j) = share[t]`` for the
        ``Y`` column ``t = (i, C)`` of ``j``'s class ``C``."""
        y = np.zeros((m, self.job_class.size))
        reps = self.sizes[self.col_class]
        total = int(reps.sum())
        if not total:
            return y
        # Pair k of Y column t is the (k - first)-th member of t's class,
        # members listed by job position within each class.
        members = np.argsort(self.job_class, kind="stable")
        class_start = np.cumsum(self.sizes) - self.sizes
        col_first = np.cumsum(reps) - reps
        within = np.arange(total, dtype=np.int64) - np.repeat(col_first, reps)
        pos = members[np.repeat(class_start[self.col_class], reps) + within]
        y[np.repeat(self.col_node, reps), pos] = np.repeat(share, reps)
        return y


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concat(arange(s, s + c))`` over ``zip(starts, counts)``."""
    total = int(counts.sum())
    first = np.cumsum(counts) - counts
    return np.repeat(starts - first, counts) + np.arange(total, dtype=np.int64)


def job_classes(canonical: CanonicalInstance) -> JobClasses:
    """Group the jobs of ``canonical`` into LP (1)'s job classes."""
    inst = canonical.instance
    forest = canonical.forest
    job_node = canonical.job_node
    m = forest.m
    index: dict[tuple[int, int], int] = {}
    job_class = np.fromiter(
        (
            index.setdefault((job_node[job.id], job.processing), len(index))
            for job in inst.jobs
        ),
        dtype=np.int64,
        count=inst.n,
    )
    keys = tuple(index)
    lengths = np.array(forest.length, dtype=float)
    preorder = np.array(forest.preorder, dtype=np.int64)
    open_pre = lengths[preorder] > 0
    rank = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(open_pre, out=rank[1:])
    des_lo = rank[np.array(forest.tin, dtype=np.int64)]
    des_hi = rank[np.array(forest.tout, dtype=np.int64)]
    positive = preorder[open_pre]
    k = np.fromiter((key[0] for key in keys), dtype=np.int64, count=len(keys))
    counts = des_hi[k] - des_lo[k]
    return JobClasses(
        keys=keys,
        sizes=np.bincount(job_class, minlength=len(keys)),
        job_class=job_class,
        col_node=positive[_ranges(des_lo[k], counts)],
        col_class=np.repeat(np.arange(len(keys), dtype=np.int64), counts),
        lengths=lengths,
        positive=positive,
        des_lo=des_lo,
        des_hi=des_hi,
    )


def build_nested_lp(
    canonical: CanonicalInstance,
    *,
    ceiling: bool = True,
    thresholds: OptThresholds | None = None,
    classes: JobClasses | None = None,
) -> tuple[LinearProgram, OptThresholds]:
    """Build LP (1) over the job classes of a canonical instance.

    Parameters
    ----------
    ceiling:
        Include constraints (7)–(8).  ``False`` gives the natural tree
        relaxation (used by the E10 ablation).
    thresholds:
        Precomputed ``OPT_i`` thresholds (computed on demand otherwise).
    classes:
        Precomputed :func:`job_classes` of ``canonical`` (computed on
        demand otherwise).

    The model is LP (1) in reduced form (see :func:`_build`): the same
    feasible ``(x, Y)`` and the same optimum as the unreduced
    :func:`repro.verify.reference.literal_lp`, with the rows the
    structure decides written as column bounds or left out.  The
    constraint families are assembled as bulk CSR blocks
    (:meth:`~repro.lp.backend.LinearProgram.add_constraint_block`).
    Columns are positions: ``x(i)`` is column ``i`` and the ``Y``
    column ``t`` of ``classes`` is column ``m + t``.
    """
    inst = canonical.instance
    forest = canonical.forest
    if thresholds is None:
        thresholds = compute_thresholds(
            forest, canonical.job_node, {j.id: j for j in inst.jobs}, inst.g
        )
    if classes is None:
        classes = job_classes(canonical)
    lp = _build(inst, forest, classes, thresholds, ceiling)
    return lp, thresholds


def _build(inst, forest, classes: JobClasses, thresholds, ceiling) -> LinearProgram:
    """Bulk-array build of LP (1) in reduced form (module docstring).

    The x columns come first, then the Y columns class-major; the
    volume family is one ``>=`` block; the capacity/spread family is
    one ``<=`` block laid out node by node ``[capacity (Y's + x),
    spread…]``, classes in class order; the ceilings are one ``>=``
    block.
    """
    m = forest.m
    g = float(inst.g)
    n_classes = len(classes.keys)
    total_y = classes.num_columns
    node_of = classes.col_node
    cls_of = classes.col_class
    lengths = classes.lengths
    sizes = classes.sizes.astype(float)
    p = np.array([key[1] for key in classes.keys], dtype=float)
    y_cols = m + np.arange(total_y, dtype=np.int64)

    counts = np.bincount(cls_of, minlength=n_classes)
    single = counts == 1
    single_col = (np.cumsum(counts) - counts)[single]
    y_lower = np.zeros(total_y)
    y_lower[single_col] = sizes[single] * p[single]
    x_lower = np.zeros(m)
    np.maximum.at(x_lower, node_of[single_col], p[single])
    fixed = x_lower == lengths

    lp = LinearProgram(name=f"nested_lp({inst.name})")
    lp.add_vars(m, objective=1.0, lower=x_lower, upper=lengths)
    lp.add_vars(
        total_y,
        lower=y_lower,
        upper=sizes[cls_of] * lengths[node_of],
    )

    # (2) one >= row per class of two or more columns (contiguous, in
    # preorder).
    multi = ~single
    if multi.any():
        lp.add_constraint_block(
            np.ones(int(counts[multi].sum())),
            y_cols[multi[cls_of]],
            np.concatenate(([0], np.cumsum(counts[multi]))),
            ">=",
            (sizes * p)[multi],
        )

    # (3) and (5) as one <= block.  Rows are keyed node-major, K classes:
    # a node's capacity row (key i·(K+1)) before its spread rows (key
    # i·(K+1) + 1 + C); the stable sort keeps the Y entries of a row (in
    # class order) before its x entry.
    stride = n_classes + 1
    cap = np.bincount(node_of, weights=sizes[cls_of], minlength=m) > g
    spread = ~fixed[node_of] & ((sizes[cls_of] < g) | ~cap[node_of])
    in_cap = cap[node_of]
    cap_nodes = np.flatnonzero(cap)
    sp_key = node_of[spread] * stride + 1 + cls_of[spread]
    key = np.concatenate(
        (node_of[in_cap] * stride, sp_key, cap_nodes * stride, sp_key)
    )
    if key.size:
        order = np.argsort(key, kind="stable")
        col = np.concatenate(
            (y_cols[in_cap], y_cols[spread], cap_nodes, node_of[spread])
        )
        val = np.concatenate(
            (
                np.ones(int(in_cap.sum()) + int(spread.sum())),
                np.full(cap_nodes.size, -g),
                -sizes[cls_of[spread]],
            )
        )
        _, row_lens = np.unique(key, return_counts=True)
        lp.add_constraint_block(
            val[order],
            col[order],
            np.concatenate(([0], np.cumsum(row_lens))),
            "<=",
            np.zeros(row_lens.size),
        )

    # (7)-(8) as one >= block over the positive-length descendants.
    if ceiling:
        omegas = np.fromiter(
            (thresholds.value(i) for i in range(m)), dtype=np.int64, count=m
        )
        lo, hi = classes.des_lo, classes.des_hi
        opened = np.zeros(classes.positive.size + 1)
        np.cumsum(x_lower[classes.positive], out=opened[1:])
        sel = np.flatnonzero((omegas >= 2) & (opened[hi] - opened[lo] < omegas))
        if sel.size:
            lens = hi[sel] - lo[sel]
            lp.add_constraint_block(
                np.ones(int(lens.sum())),
                classes.positive[_ranges(lo[sel], lens)],
                np.concatenate(([0], np.cumsum(lens))),
                ">=",
                omegas[sel].astype(float),
            )
    return lp


def lift_solution(
    canonical: CanonicalInstance,
    lp: LinearProgram,
    sol: LPSolution,
    thresholds: OptThresholds,
    classes: JobClasses | None = None,
) -> NestedLPSolution:
    """Read a solution of the class model ``lp`` back as ``x`` and class columns.

    ``lp`` must be a :func:`build_nested_lp` model of ``canonical``
    (any objective), and ``classes`` its :func:`job_classes` (computed
    on demand otherwise).  The columns are read from ``sol.x`` by index;
    a solution of the wrong length raises
    :class:`~repro.util.errors.SolverError`.  ``value`` is ``sol.value``.
    """
    if classes is None:
        classes = job_classes(canonical)
    m = canonical.forest.m
    expected = m + classes.num_columns
    if lp.num_vars != expected:
        raise SolverError(
            f"LP {lp.name!r} has {lp.num_vars} columns, expected "
            f"{expected} for this instance",
            kind="numerical",
            model=lp.name,
        )
    values = sol.x
    if values.shape != (expected,):
        raise SolverError(
            f"LP {lp.name!r} solution has {values.size} values for "
            f"{expected} columns",
            kind="numerical",
            model=lp.name,
        )
    x = snap_vector(values[:m])
    share = values[m:] / classes.sizes[classes.col_class]  # Y(i, C)/c
    share[np.abs(share) < 1e-9] = 0.0
    return NestedLPSolution(
        float(sol.value),
        x,
        thresholds=thresholds,
        classes=classes,
        share=share,
    )


def solve_nested_lp(
    canonical: CanonicalInstance,
    *,
    ceiling: bool = True,
    thresholds: OptThresholds | None = None,
) -> NestedLPSolution:
    """Solve LP (1); returns snapped ``x`` and ``y`` in class columns."""
    classes = job_classes(canonical)
    lp, thresholds = build_nested_lp(
        canonical, ceiling=ceiling, thresholds=thresholds, classes=classes
    )
    return lift_solution(
        canonical, lp, lp.solve(), thresholds, classes
    )

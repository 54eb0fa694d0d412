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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.core.opt_thresholds import OptThresholds, compute_thresholds
from repro.lp.backend import LinearProgram, LPSolution, NameFamily
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
    ``i ∈ Des(k_C)`` (preorder); the model lays them out class-major
    after the ``m`` x columns.

    Attributes
    ----------
    keys:
        ``(k, p)`` per class.
    sizes:
        Jobs per class (``c``).
    job_class:
        Class of each job position in ``instance.jobs``.
    nodes:
        ``Des(k_C)`` per class.
    col_node / col_class:
        Node and class of each ``Y`` column, in column order.
    """

    keys: tuple[tuple[int, int], ...]
    sizes: np.ndarray
    job_class: np.ndarray
    nodes: tuple[list[int], ...]
    col_node: np.ndarray
    col_class: np.ndarray

    @property
    def num_columns(self) -> int:
        """Number of ``Y`` columns, ``Σ_C |Des(k_C)|``."""
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


def job_classes(canonical: CanonicalInstance) -> JobClasses:
    """Group the jobs of ``canonical`` into LP (1)'s job classes."""
    inst = canonical.instance
    forest = canonical.forest
    job_node = canonical.job_node
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
    nodes = tuple(forest.descendants(k) for k, _ in keys)
    counts = np.fromiter(
        (len(d) for d in nodes), dtype=np.int64, count=len(nodes)
    )
    total = int(counts.sum())
    return JobClasses(
        keys=keys,
        sizes=np.bincount(job_class, minlength=len(keys)),
        job_class=job_class,
        nodes=nodes,
        col_node=np.fromiter(chain.from_iterable(nodes), dtype=np.int64, count=total),
        col_class=np.repeat(np.arange(len(keys), dtype=np.int64), counts),
    )


def _xname(i: int) -> str:
    return f"x[{i}]"


def _yname(i: int, key: tuple[int, int]) -> str:
    """Column ``Y(i, C)`` of the class ``C`` with ``key = (k, p)``."""
    return f"Y[{i},{key[0]},{key[1]}]"


# Formatters of the model's name families (:class:`NameFamily`): each
# maps the layout arrays :func:`_build` hands over to the names of one
# run of columns or rows, and runs only when those names are read.


def _xnames(m: int) -> list[str]:
    return [_xname(i) for i in range(m)]


def _ynames(col_node: np.ndarray, col_class: np.ndarray, keys: np.ndarray) -> list[str]:
    key_list = [tuple(key) for key in keys.tolist()]
    return [
        _yname(i, key_list[c])
        for i, c in zip(col_node.tolist(), col_class.tolist())
    ]


def _volume_labels(keys: np.ndarray) -> list[str]:
    return [f"volume[{k},{p}]" for k, p in keys.tolist()]


def _node_labels(nc: np.ndarray, classes: np.ndarray, keys: np.ndarray) -> list[str]:
    """Per node: capacity, length, then one spread row per class at the
    node (``nc`` of them, ``classes`` node-major)."""
    key_list = keys.tolist()
    cls_list = classes.tolist()
    labels: list[str] = []
    ptr = 0
    for i, count in enumerate(nc.tolist()):
        labels.append(f"capacity[{i}]")
        labels.append(f"length[{i}]")
        for c in cls_list[ptr : ptr + count]:
            k, p = key_list[c]
            labels.append(f"spread[{i},{k},{p}]")
        ptr += count
    return labels


def _ceiling_labels(nodes: np.ndarray, omegas: np.ndarray) -> list[str]:
    return [f"ceiling[{i}]>={w}" for i, w in zip(nodes.tolist(), omegas.tolist())]


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

    The constraint families are assembled as bulk CSR blocks
    (:meth:`~repro.lp.backend.LinearProgram.add_constraint_block`); the
    model compiles bit-for-bit like the per-row reference build
    :func:`repro.verify.reference.reference_nested_lp`, with the same
    column names and row labels.  Names and labels are
    :class:`~repro.lp.backend.NameFamily` runs over the class layout,
    formatted only when read.
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
    """Bulk-array build of LP (1).

    Emits the same variables, rows and nonzeros in the same order as the
    per-row reference build — the x columns come first, then the Y
    columns class-major; the volume family is one ``>=`` block; the
    interleaved capacity/length/spread family is one ``<=`` block whose
    per-node segment is laid out ``[capacity (nc Y's + x), length,
    spread×nc]`` for the ``nc`` classes admissible at the node.  Names
    and labels are handed over as the arrays that determine them.
    """
    m = forest.m
    g = float(inst.g)
    keys = classes.keys
    n_classes = len(keys)
    key_array = np.array(keys, dtype=np.int64).reshape(n_classes, 2)
    total_y = classes.num_columns
    lp = LinearProgram(name=f"nested_lp({inst.name})")
    lp.add_vars(NameFamily(m, _xnames, m), objective=1.0)
    lp.add_vars(
        NameFamily(
            total_y, _ynames, classes.col_node, classes.col_class, key_array
        )
    )
    counts = np.bincount(classes.col_class, minlength=n_classes)
    y_cols = m + np.arange(total_y, dtype=np.int64)
    node_of = classes.col_node
    cls_of = classes.col_class
    sizes = classes.sizes.astype(float)

    # (2) volume block: one >= row per class over its Y columns (which are
    # contiguous, in admissible-node order — exactly the reference dicts).
    if n_classes:
        lp.add_constraint_block(
            np.ones(total_y),
            y_cols,
            np.concatenate(([0], np.cumsum(counts))),
            ">=",
            sizes * key_array[:, 1],
            NameFamily(n_classes, _volume_labels, key_array),
        )

    # (3)-(5) one <= block, node-major.  Stable sort by node keeps the
    # class order within each node (the reference per_node_classes order).
    if m:
        order = np.argsort(node_of, kind="stable")
        s_node = node_of[order]
        s_ycol = y_cols[order]
        s_cls = cls_of[order]
        nc = np.bincount(node_of, minlength=m)
        group_start = np.cumsum(nc) - nc
        within = np.arange(total_y, dtype=np.int64) - group_start[s_node]
        xcols = np.arange(m, dtype=np.int64)
        lengths = np.fromiter(
            (float(forest.length(i)) for i in range(m)), dtype=float, count=m
        )

        seg_nnz = 3 * nc + 2  # capacity nc+1, length 1, spread 2·nc
        seg_start = np.cumsum(seg_nnz) - seg_nnz
        nnz = int(seg_nnz.sum())
        data = np.empty(nnz, dtype=float)
        indices = np.empty(nnz, dtype=np.int64)
        cap_y = seg_start[s_node] + within
        data[cap_y] = 1.0
        indices[cap_y] = s_ycol
        cap_x = seg_start + nc
        data[cap_x] = -g
        indices[cap_x] = xcols
        data[cap_x + 1] = 1.0  # length row
        indices[cap_x + 1] = xcols
        sp_y = seg_start[s_node] + nc[s_node] + 2 + 2 * within
        data[sp_y] = 1.0
        indices[sp_y] = s_ycol
        data[sp_y + 1] = -sizes[s_cls]
        indices[sp_y + 1] = s_node

        rows_per_node = nc + 2
        row_start = np.cumsum(rows_per_node) - rows_per_node
        total_rows = int(rows_per_node.sum())
        row_lens = np.full(total_rows, 2, dtype=np.int64)
        row_lens[row_start] = nc + 1
        row_lens[row_start + 1] = 1
        rhs = np.zeros(total_rows)
        rhs[row_start + 1] = lengths
        lp.add_constraint_block(
            data,
            indices,
            np.concatenate(([0], np.cumsum(row_lens))),
            "<=",
            rhs,
            NameFamily(total_rows, _node_labels, nc, s_cls, key_array),
        )

    # (7)-(8) as one >= block over descendant x columns, same row and
    # column order as the reference dict loop.
    if ceiling:
        omegas = [thresholds.value(i) for i in range(m)]
        sel = [i for i in range(m) if omegas[i] >= 2]
        if sel:
            desc = [forest.descendants(i) for i in sel]
            lens = np.fromiter(
                (len(d) for d in desc), dtype=np.int64, count=len(sel)
            )
            idx = np.fromiter(
                (k for d in desc for k in d),
                dtype=np.int64,
                count=int(lens.sum()),
            )
            sel_omegas = np.array([omegas[i] for i in sel], dtype=np.int64)
            lp.add_constraint_block(
                np.ones(idx.size),
                idx,
                np.concatenate(([0], np.cumsum(lens))),
                ">=",
                sel_omegas.astype(float),
                NameFamily(
                    len(sel),
                    _ceiling_labels,
                    np.array(sel, dtype=np.int64),
                    sel_omegas,
                ),
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

"""Content-addressed solve cache.

:func:`model_fingerprint` / :class:`SolveCache` give **exact** content
addressing.  The key is a cryptographic digest of the *compiled* sparse
model — the objective, bounds, CSR structure of both constraint blocks,
which rows are negated ``>=`` rows, variable names and row labels.  Two
``LinearProgram`` objects built independently (e.g. the same instance
re-solved by a later battery run, or the transform→round pipeline
re-deriving the same LP) hash identically and share one backend solve.

Variable names and labels are part of the key on purpose: a cached
answer is read back by name (:attr:`~repro.lp.backend.LPSolution.values`,
``duals``), so two numerically identical models with different namings
must not collide.  Names given as strings are hashed as strings; a
:class:`~repro.lp.backend.NameFamily` is hashed as its tag, count and
layout arrays, which determine its names, so keying a model formats no
name.  A model named by families and one naming the same columns by
strings may therefore key apart: a safe miss, never a wrong hit.  An
entry itself holds no names: only the objective value, the solution
vector and the row marginals, bound to the requesting model's names on
each hit.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from itertools import chain, groupby

import numpy as np

from repro.lp.backend import LPSolution, ModelNames, NameFamily, Names


def model_fingerprint(parts: dict) -> str:
    """Canonical hash of a compiled model, ``parts = lp.compile()``."""
    h = hashlib.blake2b(digest_size=20)

    def arr(a) -> None:
        if a is None:
            h.update(b"\x00none")
            return
        a = np.ascontiguousarray(a, dtype=float)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())

    def csr(mat) -> None:
        if mat is None:
            h.update(b"\x00none")
            return
        h.update(str(mat.shape).encode())
        h.update(np.ascontiguousarray(mat.data, dtype=float).tobytes())
        h.update(np.ascontiguousarray(mat.indices, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(mat.indptr, dtype=np.int64).tobytes())

    def names(seq: Names) -> None:
        # Adjacent string runs hash as one join, so the key does not
        # depend on how a model's string names were split into runs.
        for is_family, run in groupby(
            seq.segments, key=lambda seg: isinstance(seg, NameFamily)
        ):
            if is_family:
                for family in run:
                    h.update(b"\x00family\x1f" + family.tag.encode())
                    h.update(str(family.count).encode())
                    for a in family.arrays:
                        a = np.ascontiguousarray(a)
                        h.update(f"\x1f{a.dtype.str}{a.shape}".encode())
                        h.update(a.tobytes())
            else:
                h.update(b"\x00names\x1f")
                h.update("\x1f".join(chain.from_iterable(run)).encode())
        h.update(b"\x00")

    arr(parts["c"])
    csr(parts["A_ub"])
    arr(parts["b_ub"])
    csr(parts["A_eq"])
    arr(parts["b_eq"])
    bounds = np.asarray(parts["bounds"], dtype=float)
    arr(bounds if bounds.size else None)
    model_names: ModelNames = parts["names"]
    negated = model_names.negated_ub
    h.update(b"\x00none" if negated is None else negated.tobytes())
    names(model_names.columns)
    names(model_names.labels_ub)
    names(model_names.labels_eq)
    return h.hexdigest()


class SolveCache:
    """A bounded LRU map ``fingerprint → LPSolution``.

    An entry keeps only the objective value, a copy of the solution
    vector and copies of the row marginals; it references neither the
    model nor its compiled parts, so a cached solve keeps no model
    alive.  :meth:`get` returns a fresh :class:`LPSolution` with its own
    copies, bound to the names and labels it is given, so a caller
    mutating ``sol.x`` or ``sol.values`` cannot poison the cache.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: OrderedDict[str, LPSolution] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str, names: ModelNames = ModelNames()) -> LPSolution | None:
        """The cached answer for ``key``, bound to the requesting model's
        ``names`` (``parts["names"]`` of its compiled parts, formatted
        only when the answer is read by name), or ``None``."""
        sol = self._entries.get(key)
        if sol is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return sol.copy(names)

    def put(self, key: str, sol: LPSolution) -> None:
        self._entries[key] = sol.copy()
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


def clear_basis_cache() -> None:
    """Does nothing: there is no basis cache any more.

    Kept importable because the harness under ``perfbench/`` calls it,
    next to :func:`~repro.solver.service.clear_solver_cache`, between
    runs.
    """

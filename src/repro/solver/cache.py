"""Content-addressed solve cache.

:func:`model_fingerprint` / :class:`SolveCache` give **exact** content
addressing.  The key is a cryptographic digest of the *compiled* sparse
model — the objective, bounds, CSR structure of both constraint blocks
and which rows are negated ``>=`` rows.  Two ``LinearProgram`` objects
built independently (e.g. the same instance re-solved by a later
battery run, or the transform→round pipeline re-deriving the same LP)
hash identically and share one backend solve.

Models have no names: columns and rows are positions, so two models
with equal arrays share one entry whatever built them.  An entry holds
only the objective value, the solution vector and the row marginals.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np

from repro.lp.backend import LPSolution


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

    arr(parts["c"])
    csr(parts["A_ub"])
    arr(parts["b_ub"])
    csr(parts["A_eq"])
    arr(parts["b_eq"])
    bounds = np.asarray(parts["bounds"], dtype=float)
    arr(bounds if bounds.size else None)
    negated = parts["negated_ub"]
    h.update(b"\x00none" if negated is None else negated.tobytes())
    return h.hexdigest()


class SolveCache:
    """A bounded LRU map ``fingerprint → LPSolution``.

    An entry keeps only the objective value, a copy of the solution
    vector and copies of the row marginals; it references neither the
    model nor its compiled parts, so a cached solve keeps no model
    alive.  :meth:`get` returns a fresh :class:`LPSolution` with its own
    copies, so a caller mutating ``sol.x`` or the marginals cannot
    poison the cache.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: OrderedDict[str, LPSolution] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> LPSolution | None:
        """A copy of the cached answer for ``key``, or ``None``."""
        sol = self._entries.get(key)
        if sol is None:
            return None
        self._entries.move_to_end(key)
        return sol.copy()

    def put(self, key: str, sol: LPSolution) -> None:
        self._entries[key] = sol.copy()
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()


def clear_basis_cache() -> None:
    """Does nothing: there is no basis cache any more.

    Kept importable because the harness under ``perfbench/`` calls it,
    next to :func:`~repro.solver.service.clear_solver_cache`, between
    runs.
    """

"""Content-addressed solve cache and structural basis reuse.

Two levels of reuse live here:

* :func:`model_fingerprint` / :class:`SolveCache` — **exact** content
  addressing.  The key is a cryptographic digest of the *compiled*
  sparse model — the objective, bounds, CSR structure of both constraint
  blocks, variable names and row labels — plus the backend chain the
  caller allowed.  Two ``LinearProgram`` objects built independently
  (e.g. the same instance re-solved by a later battery run, or the
  transform→round pipeline re-deriving the same LP) hash identically and
  share one backend solve.
* :func:`structural_fingerprint` / :class:`BasisCache` — **structural**
  reuse.  The key deliberately excludes the objective and right-hand
  sides, so perturbed-LP batteries (same constraint matrix, nudged
  ``c``) and re-solves with shifted budgets land on the same key.  The
  cached value is the from-scratch simplex solver's optimal *basis*,
  used as a warm start that skips phase 1 entirely; a stale basis is
  re-validated against the new model before use and can only cost one
  rejected attempt, never a wrong answer.

Variable names and labels are part of both keys on purpose: a cached
answer is read back by name (:attr:`~repro.lp.backend.LPSolution.values`,
``duals``), so two numerically identical models with different namings
must not collide.  An entry itself holds no names: only the objective
value, the solution vector and the row marginals, bound to the
requesting model's names and labels on each hit.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro import obs
from repro.lp.backend import LPSolution


def model_fingerprint(lp, parts: dict, chain: tuple[str, ...]) -> str:
    """Canonical hash of a compiled model + allowed backend chain."""
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
    h.update("\x1f".join(lp.variable_names()).encode())
    h.update(b"\x00")
    h.update(
        "\x1f".join(f"{label}\x1e{sense}" for label, sense in parts["meta_ub"]).encode()
    )
    h.update(b"\x00")
    h.update("\x1f".join(parts["meta_eq"]).encode())
    h.update(b"\x00")
    h.update("|".join(chain).encode())
    return h.hexdigest()


def structural_fingerprint(lp, parts: dict) -> str:
    """Hash of the model *structure*: everything but ``c`` and ``b``.

    Covers the CSR arrays of both constraint blocks (values, column
    indices, row pointers, shapes), the bounds, variable names, and row
    labels/senses — but **not** the objective vector or right-hand
    sides.  Models that differ only in those (the perturbed-objective
    battery, budget sweeps) share a key, which is exactly when a prior
    optimal simplex basis is worth trying as a warm start.
    """
    h = hashlib.blake2b(digest_size=20)

    def csr(mat) -> None:
        if mat is None:
            h.update(b"\x00none")
            return
        h.update(str(mat.shape).encode())
        h.update(np.ascontiguousarray(mat.data, dtype=float).tobytes())
        h.update(np.ascontiguousarray(mat.indices, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(mat.indptr, dtype=np.int64).tobytes())

    csr(parts["A_ub"])
    csr(parts["A_eq"])
    bounds = np.asarray(parts["bounds"], dtype=float)
    if bounds.size:
        h.update(str(bounds.shape).encode())
        h.update(np.ascontiguousarray(bounds).tobytes())
    else:
        h.update(b"\x00none")
    h.update("\x1f".join(lp.variable_names()).encode())
    h.update(b"\x00")
    h.update(
        "\x1f".join(f"{label}\x1e{sense}" for label, sense in parts["meta_ub"]).encode()
    )
    h.update(b"\x00")
    h.update("\x1f".join(parts["meta_eq"]).encode())
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

    def get(
        self,
        key: str,
        names: Sequence[str] = (),
        meta_ub: Sequence[tuple[str, str]] = (),
        meta_eq: Sequence[str] = (),
    ) -> LPSolution | None:
        """The cached answer for ``key``, bound to the requesting model's
        column ``names`` and row labels (``meta_ub``/``meta_eq`` of its
        compiled parts), or ``None``."""
        sol = self._entries.get(key)
        if sol is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return sol.copy(names, meta_ub, meta_eq)

    def put(self, key: str, sol: LPSolution) -> None:
        self._entries[key] = sol.copy()
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


class BasisCache:
    """Bounded LRU ``structural fingerprint → optimal simplex basis``.

    Written by :meth:`repro.lp.backend.LinearProgram._solve_simplex`
    after every successful from-scratch simplex solve; read before the
    next solve of a structurally identical model to skip phase 1.
    Its :attr:`stats` feed ``solver_stats()`` as flat keys:

    * ``simplex_warm_attempts`` — lookups (one per simplex solve);
    * ``simplex_warm_hits`` — lookups that found a candidate basis;
    * ``simplex_warm_rejects`` — candidates the solver refused
      (singular/infeasible for the new rhs), i.e. hits that fell back
      to the cold path;
    * ``simplex_warm_stores`` — bases written back.

    The effective warm-start rate is ``(hits - rejects) / attempts``.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: OrderedDict[str, tuple[int, ...]] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = obs.Counters(
            simplex_warm_attempts=0,
            simplex_warm_hits=0,
            simplex_warm_rejects=0,
            simplex_warm_stores=0,
        )

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> list[int] | None:
        with self._lock:
            basis = self._entries.get(key)
            if basis is not None:
                self._entries.move_to_end(key)
        self.stats.add(
            simplex_warm_attempts=1, simplex_warm_hits=int(basis is not None)
        )
        return None if basis is None else list(basis)

    def put(self, key: str, basis: Sequence[int]) -> None:
        with self._lock:
            self._entries[key] = tuple(int(j) for j in basis)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        self.stats.add(simplex_warm_stores=1)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
        self.stats.reset()


_BASIS_CACHE = BasisCache()


def basis_cache() -> BasisCache:
    """The process-wide basis cache used by the simplex backend."""
    return _BASIS_CACHE


def basis_cache_stats() -> dict[str, int]:
    """Flat ``simplex_warm_*`` counters, merged into ``solver_stats()``."""
    return _BASIS_CACHE.stats.snapshot()


def clear_basis_cache() -> None:
    """Drop all cached bases and reset the warm-start counters."""
    _BASIS_CACHE.clear()

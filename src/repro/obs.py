"""Counters: named thread-safe groups, per-context scopes, merge and render.

The one layer behind the CLI ``--stats`` block, ``/metrics``, the
service's request counters and every per-run ``solver``/``flow`` block.
A *snapshot* or *block* is a plain dict of numbers, possibly nested.
:class:`Counters` is a named group; :func:`scope` collects what the
current context adds to each group while it is open (one run, request
part or campaign), exact however many other threads count meanwhile;
:func:`merge` sums blocks (pooled workers, shards, response parts) and
:func:`render` aligns the CLI ``--stats`` rows.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence


@dataclass(frozen=True)
class Window:
    """Zero of a keyed family of windows, each keeping its last ``size`` values."""

    size: int


class Scope(dict):
    """A :func:`scope`'s blocks by group name; unused names read as zeros."""

    def __getitem__(self, name: str) -> dict[str, Any]:
        zero, lock = _GROUPS[name]
        with lock:
            return _copy(self.get(name, zero))


#: Zero values and lock of each group name; the lock also guards the
#: name's scope blocks, which a context copied to another thread shares.
#: The two groups every per-run block reads are declared here, so a
#: scope reads them zero-filled whatever has been imported.
_GROUPS: dict[str, tuple[dict[str, Any], threading.Lock]] = {
    name: (zero, threading.Lock())
    for name, zero in {
        # LP (1) solves of every repro.solver.SolverService.
        "solver": dict(
            solves=0,  # solve requests (hits + misses)
            cache_hits=0,
            cache_misses=0,
            failures=0,  # backend errors other than an infeasible verdict
            rows=0,  # constraint rows actually sent to the backend
            cols=0,  # variable columns actually sent to the backend
            wall_time=0.0,  # total time inside SolverService.solve
            backend_solves=0,  # successful backend solves
            backend_time=0.0,  # time inside those solves
        ),
        # The repro.flow.incremental engine.
        "flow": dict(
            networks_built=0,  # incremental networks constructed
            probes=0,  # feasibility probes answered by the engine
            rebuilds_avoided=0,  # probes answered warm (no fresh network)
            augmenting_paths=0,  # paths pushed while re-augmenting
            units_repaired=0,  # flow units cancelled by capacity drops
            units_augmented=0,  # flow units pushed by re-augmentation
        ),
    }.items()
}
#: The scopes open in the current context.
_SCOPES: ContextVar[tuple[Scope, ...]] = ContextVar("obs_scopes", default=())


def _copy(value: Any) -> Any:
    """A plain copy (windows listed oldest first); of zeros, fresh values."""
    if isinstance(value, dict):
        return {key: _copy(item) for key, item in value.items()}
    if isinstance(value, deque):
        return list(value)
    return {} if isinstance(value, Window) else value


def _apply(
    zero: Mapping[str, Any], values: dict[str, Any], amounts: Mapping[str, Any]
) -> None:
    for key, amount in amounts.items():
        if not isinstance(amount, dict):
            values[key] += amount
        elif isinstance(zero[key], Window):
            for name, x in amount.items():
                window = values[key].get(name)
                if window is None:
                    window = values[key][name] = deque(maxlen=zero[key].size)
                window.append(x)
        else:
            merge(values[key], amount)


class Counters:
    """A named group of counters behind its name's lock.

    ``Counters("requests", parts=0, latency={})`` declares the fields
    and their zero values; a field whose zero is a dict holds a keyed
    family whose entries appear on first use, and a :class:`Window` zero
    a keyed family of sliding windows.  ``Counters("solver")`` names the
    fields declared before, here those of ``"solver"`` and ``"flow"``.
    :meth:`add` applies several increments under one acquisition, so a
    concurrent :meth:`snapshot` shows all of them or none, and adds them
    into every :func:`scope` open in the calling context.  Groups sharing
    a name (two solver services) must declare the same fields.
    """

    def __init__(self, name: str, /, **zero: Any) -> None:
        declared, self._lock = _GROUPS.setdefault(name, (zero, threading.Lock()))
        if zero and declared != zero:
            raise ValueError(f"counter group {name!r} has other fields")
        self.name = name
        self._zero = declared
        self._values = _copy(declared)

    def add(self, **amounts: Any) -> None:
        """Add ``amounts`` (numbers, dicts for keyed families) atomically.

        Naming an undeclared field raises :class:`KeyError`.
        """
        scopes = _SCOPES.get()
        with self._lock:
            _apply(self._zero, self._values, amounts)
            for opened in scopes:
                block = opened.get(self.name)
                if block is None:
                    block = opened[self.name] = _copy(self._zero)
                _apply(self._zero, block, amounts)

    def snapshot(self) -> dict[str, Any]:
        """A consistent copy, safe to keep across further updates."""
        with self._lock:
            return _copy(self._values)

    def reset(self) -> None:
        with self._lock:
            self._values = _copy(self._zero)


@contextmanager
def scope() -> Iterator[Scope]:
    """Collect every :meth:`Counters.add` this context makes meanwhile.

    Scopes nest (an add reaches every open one).  Work in another
    thread, or in a thread this one starts, is not seen.
    """
    opened = Scope()
    token = _SCOPES.set(_SCOPES.get() + (opened,))
    try:
        yield opened
    finally:
        _SCOPES.reset(token)


def merge(into: dict[str, Any], *blocks: Mapping[str, Any]) -> dict[str, Any]:
    """Add each of ``blocks`` into ``into`` in place and return it.

    Nested blocks are summed key by key; keys missing from ``into`` are
    created, so ``merge({}, *parts)`` totals a list of blocks.
    """
    for part in blocks:
        for key, value in part.items():
            if isinstance(value, dict):
                merge(into.setdefault(key, {}), value)
            else:
                into[key] = into.get(key, 0) + value
    return into


def render(title: str, rows: Sequence[tuple[str, Any]]) -> str:
    """``title`` over ``label  value`` rows, labels padded to one width."""
    width = max(len(label) for label, _ in rows)
    lines = [title]
    for label, value in rows:
        lines.append(f"  {label.ljust(width)}  {value}")
    return "\n".join(lines)


__all__ = ["Counters", "Scope", "Window", "merge", "render", "scope"]

"""Counters: thread-safe groups plus snapshot delta, merge and render.

This is the one layer behind the CLI ``--stats`` block, ``/metrics`` and
every per-run ``solver``/``flow`` stats block.  A counter *snapshot* is a
plain dict of numbers, possibly nested (the service's pooled worker
block is ``{"solver": {...}, "flow": {...}}``).  This module holds everything done
with snapshots:

* :class:`Counters` — a thread-safe group that hands them out;
* :func:`delta` — ``after - before`` of two snapshots (what one run,
  request or campaign did);
* :func:`merge` — sums deltas (pooled workers, shards, response parts);
* :func:`render` — the aligned text block of the CLI ``--stats`` flag.
"""

from __future__ import annotations

import copy
import threading
from typing import Any, Mapping, Sequence


class Counters:
    """Named counters behind one lock.

    ``Counters(probes=0, solver={})`` declares the fields and their
    zero values; a field whose zero is a dict holds a keyed family whose
    entries appear on first use.  :meth:`add` applies several increments
    under one acquisition, so a reader never sees half of a related
    update: a :meth:`snapshot` taken concurrently shows all of them or
    none.
    """

    def __init__(self, **zero: Any) -> None:
        self._zero = zero
        self._lock = threading.Lock()
        self._values = copy.deepcopy(zero)

    def add(self, **amounts: Any) -> None:
        """Add ``amounts`` (numbers, or dicts for keyed families) atomically.

        Naming an undeclared field raises :class:`KeyError`.
        """
        with self._lock:
            values = self._values
            for key, amount in amounts.items():
                if isinstance(amount, dict):
                    merge(values[key], amount)
                else:
                    values[key] += amount

    def snapshot(self) -> dict[str, Any]:
        """A consistent deep copy, safe to keep across further updates."""
        with self._lock:
            return copy.deepcopy(self._values)

    def reset(self) -> None:
        with self._lock:
            self._values = copy.deepcopy(self._zero)


def delta(
    after: Mapping[str, Any], before: Mapping[str, Any]
) -> dict[str, Any]:
    """``after - before`` for two snapshots of the same counters.

    Numbers subtract (a key missing from ``before`` counts as zero) and
    nested blocks subtract key by key; every key of ``after`` is kept.
    """
    out: dict[str, Any] = {}
    for key, value in after.items():
        prior = before.get(key)
        if isinstance(value, dict):
            out[key] = delta(value, prior or {})
        else:
            out[key] = value - (prior or 0)
    return out


def merge(into: dict[str, Any], *deltas: Mapping[str, Any]) -> dict[str, Any]:
    """Add each of ``deltas`` into ``into`` in place and return it.

    Nested blocks are summed key by key; keys missing from ``into`` are
    created, so ``merge({}, *parts)`` totals a list of deltas.
    """
    for part in deltas:
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


__all__ = ["Counters", "delta", "merge", "render"]

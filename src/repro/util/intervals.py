"""Half-open integer interval algebra used for job windows.

Windows are half-open ``[start, end)`` on the integer timeline, matching the
paper's convention ``[r_j, d_j)``.  The key predicate is laminarity: every
pair of windows is either disjoint or nested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence


@dataclass(frozen=True, slots=True, order=True)
class Interval:
    """A half-open integer interval ``[start, end)`` with ``start < end``."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise ValueError(f"empty interval [{self.start}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.start

    @property
    def length(self) -> int:
        """Number of integer slots covered."""
        return self.end - self.start

    def __contains__(self, t: int) -> bool:
        return self.start <= t < self.end

    def contains_interval(self, other: "Interval") -> bool:
        """True when ``other`` lies inside ``self`` (possibly equal)."""
        return self.start <= other.start and other.end <= self.end

    def strictly_contains(self, other: "Interval") -> bool:
        """True when ``other`` lies inside ``self`` and differs from it."""
        return self.contains_interval(other) and self != other

    def overlaps(self, other: "Interval") -> bool:
        return self.start < other.end and other.start < self.end

    def slots(self) -> range:
        """Iterate the integer slots in the interval."""
        return range(self.start, self.end)

    def intersect(self, other: "Interval") -> "Interval | None":
        lo, hi = max(self.start, other.start), min(self.end, other.end)
        return Interval(lo, hi) if lo < hi else None


def intervals_disjoint(a: Interval, b: Interval) -> bool:
    """True when the two intervals share no slot."""
    return not a.overlaps(b)


def intervals_nested(a: Interval, b: Interval) -> bool:
    """True when one interval contains the other."""
    return a.contains_interval(b) or b.contains_interval(a)


class Nest(NamedTuple):
    """A family of windows swept once into its containment forest.

    ``start``/``end`` are the distinct windows sorted by ``(start, -end)``
    (outermost first), ``parent[w]`` is the index of the smallest window
    strictly containing window ``w`` (``-1`` at a root), and ``of_item[k]``
    is the window of the ``k``-th input pair.  ``crossing`` is the first
    properly crossing pair ``((r1, d1), (r2, d2))`` the sweep meets, and
    ``None`` when the family is laminar; the sweep stops there, so
    ``parent`` is complete only for a laminar family.
    """

    start: list[int]
    end: list[int]
    parent: list[int]
    of_item: list[int]
    crossing: tuple[tuple[int, int], tuple[int, int]] | None


def nest(pairs: Sequence[tuple[int, int]]) -> Nest:
    """Sort the distinct ``(start, end)`` pairs once and sweep them.

    In ``(start, -end)`` order every window that contains a window comes
    before it, so a stack of the open windows holds its ancestors: pop the
    ones that end before it starts, and the top, if any, must contain it
    (its parent) or the two cross.  Runs in ``O(k log k)``.
    """
    keys = sorted((s, -e) for s, e in set(pairs))
    start = [s for s, _ in keys]
    end = [-e for _, e in keys]
    index = {window: w for w, window in enumerate(zip(start, end))}
    parent: list[int] = []
    stack: list[int] = []
    crossing = None
    for w, s in enumerate(start):
        while stack and end[stack[-1]] <= s:
            stack.pop()
        if stack and end[stack[-1]] < end[w]:
            top = stack[-1]
            crossing = ((start[top], end[top]), (s, end[w]))
            break
        parent.append(stack[-1] if stack else -1)
        stack.append(w)
    return Nest(start, end, parent, list(map(index.__getitem__, pairs)), crossing)


def is_laminar(intervals: Iterable[Interval]) -> bool:
    """True when every pair of intervals is disjoint or nested."""
    return nest([(iv.start, iv.end) for iv in intervals]).crossing is None


def union_length(intervals: Sequence[Interval]) -> int:
    """Total number of slots covered by the union of the intervals."""
    if not intervals:
        return 0
    items = sorted(intervals, key=lambda iv: iv.start)
    total = 0
    cur_start, cur_end = items[0].start, items[0].end
    for iv in items[1:]:
        if iv.start > cur_end:
            total += cur_end - cur_start
            cur_start, cur_end = iv.start, iv.end
        else:
            cur_end = max(cur_end, iv.end)
    total += cur_end - cur_start
    return total

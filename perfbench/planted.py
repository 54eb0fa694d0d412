"""Seeded planted-feasible laminar instances.

The benchmark builds its own inputs so they stay fixed when the program's
generators change, and so set-up is not spent discarding infeasible jobs.
Each instance is feasible by construction: the generator places every job
into concrete slots of its window while keeping every slot's load at most
``g``, and that placement is a witness schedule.  Nothing here imports the
program; instances come out as plain dicts in the program's JSON instance
format (``{"version", "g", "name", "jobs": [{"id", "r", "d", "p"}]}``).
"""

from __future__ import annotations

import random

import numpy as np

#: Share of jobs with unit processing time.
UNIT_FRACTION = 0.3
#: Shortest window the tree grows.
MIN_LEN = 2


def laminar_windows(rng: random.Random, horizon: int, count: int) -> list[tuple[int, int, int]]:
    """A random laminar family of ``(start, end, parent)`` windows.

    Grows a tree from the root ``[0, horizon)`` by splitting a random leaf
    into two or three children; children may leave gaps, so the family is
    not a partition at any level.
    """
    windows = [(0, horizon, -1)]
    leaves = [0]
    while len(windows) < count and leaves:
        k = rng.randrange(len(leaves))
        parent = leaves[k]
        a, b, _ = windows[parent]
        parts = rng.choice((2, 2, 3))
        if b - a < parts * MIN_LEN:
            leaves.pop(k)
            continue
        leaves.pop(k)
        cuts = sorted(rng.sample(range(a + MIN_LEN, b - MIN_LEN + 1), parts - 1))
        bounds = [a, *cuts, b]
        for lo, hi in zip(bounds, bounds[1:]):
            # Trim up to a quarter of each side, keeping at least MIN_LEN.
            slack = (hi - lo) - MIN_LEN
            if slack > 0:
                lo += rng.randint(0, slack // 4)
                hi -= rng.randint(0, slack // 4)
            windows.append((lo, hi, parent))
            leaves.append(len(windows) - 1)
    return windows


def planted_instance(
    seed: int,
    *,
    n: int,
    horizon: int,
    g: int,
    windows: int,
    p_max: int,
    shape_seed: int | None = None,
    name: str = "",
) -> dict:
    """A feasible laminar instance with ``n`` jobs over ``[0, horizon)``.

    Jobs pick a random window, then take ``p`` distinct slots in it that
    still have room, preferring slots that already hold work so the
    planted schedule is compact.  A job whose window is full moves up to
    the nearest enclosing window with room, which keeps most jobs deep in
    the tree.  ``shape_seed`` fixes the window tree and each job's first
    choice of window independently of ``seed``, which then draws the
    processing times and the planted slots.
    """
    rng = random.Random(seed)
    shape_rng = rng if shape_seed is None else random.Random(shape_seed)
    family = laminar_windows(shape_rng, horizon, windows)
    load = np.zeros(horizon, dtype=np.int64)
    jobs = []
    for jid in range(n):
        k = shape_rng.randrange(len(family))
        while True:
            a, b, parent = family[k]
            window = load[a:b]
            busy = np.flatnonzero((window > 0) & (window < g))
            empty = np.flatnonzero(window == 0)
            if busy.size + empty.size:
                break
            if parent < 0:
                raise ValueError(f"volume exceeds g * horizon (seed {seed})")
            k = parent
        room = busy.size + empty.size
        p = 1 if rng.random() < UNIT_FRACTION else rng.randint(1, min(p_max, room))
        # Slots that already hold work first, then empty ones.
        take = min(p, busy.size)
        picked = [busy[i] for i in rng.sample(range(busy.size), take)]
        picked += [empty[i] for i in rng.sample(range(empty.size), p - take)]
        load[a + np.asarray(picked, dtype=np.int64)] += 1
        jobs.append({"id": jid, "r": a, "d": b, "p": p})
    return {"version": 1, "g": g, "name": name or f"planted-{seed}", "jobs": jobs}


def independent_union(parts: list[dict], gap: int, name: str) -> dict:
    """Place instances side by side on the time axis, ``gap`` slots apart.

    The parts share no slot, so the union splits back into them.
    """
    jobs = []
    offset = 0
    for part in parts:
        end = max(j["d"] for j in part["jobs"])
        for j in part["jobs"]:
            jobs.append(
                {"id": len(jobs), "r": j["r"] + offset, "d": j["d"] + offset, "p": j["p"]}
            )
        offset += end + gap
    return {"version": 1, "g": parts[0]["g"], "name": name, "jobs": jobs}

"""Section 6 reduction chain: set cover → prefix sum cover → active time.

Both directions of each reduction ship with witness mappings so tests can
verify decision equivalence end-to-end against brute-force solvers.

A note on constants (documented correction).  The paper transforms
indicator vectors with slope ``2 + (d - j)`` and then asserts the results
are monotone; with slope 1 per coordinate the transformed vectors are not
always nonincreasing (e.g. the indicator ``(1, 0, 1)``).  We use slope
``C = 3`` — ``u'[j] = u[j] - u[j-1] + 2 + C·(d - j)`` — which makes every
transformed vector strictly decreasing while preserving the paper's key
telescoping identity

    Σ_{i≤k} prefix_{u'_i}(j) - prefix_{v'}(j)  =  Σ_{i≤k} u_i[j] - v[j],

so prefix domination by *exactly k* transformed vectors is equivalent to
pointwise coverage by the original k indicators.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardness.prefix_sum_cover import PrefixSumCoverInstance
from repro.hardness.set_cover import SetCoverInstance
from repro.instances.jobs import Instance, Job

#: Slope constant of the set-cover → PSC transform (see module docstring).
SLOPE = 3


# ---------------------------------------------------------------------------
# Set cover  →  prefix sum cover
# ---------------------------------------------------------------------------


def set_cover_to_psc(sc: SetCoverInstance) -> PrefixSumCoverInstance:
    """Encode a set-cover instance as restricted prefix sum cover.

    With ``a_i`` the indicator of set ``i`` (1-indexed coordinates,
    ``a_i[0] = 0``):

        u_i[j] = a_i[j] - a_i[j-1] + 2 + C·(d - j)        (j = 1..d)
        v[j]   = t[j]  -  t[j-1]  + 2k + C·k·(d - j)      (t = all-ones)

    Choosing exactly ``k`` vectors, prefix sums telescope so that
    domination at coordinate ``j`` is exactly ``Σ_i a_i[j] ≥ t[j]``.
    """
    d, k = sc.universe_size, sc.k
    vectors = []
    for s in sc.sets:
        a = [0] + [1 if (j - 1) in s else 0 for j in range(1, d + 1)]
        u = tuple(
            a[j] - a[j - 1] + 2 + SLOPE * (d - j) for j in range(1, d + 1)
        )
        vectors.append(u)
    t = [0] + [1] * d
    target = tuple(
        t[j] - t[j - 1] + 2 * k + SLOPE * k * (d - j) for j in range(1, d + 1)
    )
    return PrefixSumCoverInstance(vectors=tuple(vectors), target=target, k=k)


def set_cover_witness_to_psc(
    sc: SetCoverInstance, chosen: tuple[int, ...]
) -> tuple[int, ...]:
    """Pad a set-cover witness to exactly ``k`` vector picks (repeats OK)."""
    picks = list(chosen)
    if not picks and sc.k > 0:
        picks = [0]
    while len(picks) < sc.k:
        picks.append(picks[-1])
    return tuple(picks)


# ---------------------------------------------------------------------------
# Prefix sum cover  →  nested active time
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PSCReduction:
    """The nested active-time instance encoding a PSC instance.

    Attributes
    ----------
    instance:
        The nested active-time instance (capacity ``g = d·W``).
    base_open:
        ``n·(W-1)``: non-special slots that any feasible solution opens.
    budget:
        Active-time budget equivalent to the PSC decision:
        ``base_open + k``.
    special_slots:
        Slot ``(i-1)·W`` for each block ``i`` — opening it corresponds to
        picking vector ``u_i``.
    """

    instance: Instance
    base_open: int
    budget: int
    special_slots: tuple[int, ...]
    psc: PrefixSumCoverInstance


def psc_to_active_time(psc: PrefixSumCoverInstance) -> PSCReduction:
    """Build the paper's three-layer job construction (S1, S2, S3).

    Per vector block ``i`` (timeline ``[(i-1)W, iW)``):

    * **S1** rigid unit jobs pin every non-special slot: slot ``w ≥ 2`` of
      the block gets ``p - |{j : u_i[j] ≥ w}|`` jobs (``p = d·W``);
    * **S2** ``Σ_j u_i[j] - d`` flexible unit jobs with the block window;
    * **S3** one job of length ``v[j]`` per coordinate, window ``[0, nW)``.

    Opening block ``i``'s special slot frees exactly the unused-machine
    profile ``u_i`` for S3 (Lemma 6.2), so OPT ≤ base + k iff the PSC
    instance is solvable.
    """
    d, n = psc.d, psc.n
    w_max = max(psc.max_scalar, 2)
    p = d * w_max  # machine capacity g
    jobs: list[Job] = []
    jid = 0
    special = []
    for i, u in enumerate(psc.vectors):
        block_start = i * w_max
        special.append(block_start)
        # S1: rigid fillers on non-special slots.
        for w in range(2, w_max + 1):
            filler = p - sum(1 for x in u if x >= w)
            slot = block_start + w - 1
            for _ in range(filler):
                jobs.append(
                    Job(id=jid, release=slot, deadline=slot + 1, processing=1)
                )
                jid += 1
        # S2: flexible unit jobs bound to the block.
        for _ in range(sum(u) - d):
            jobs.append(
                Job(
                    id=jid,
                    release=block_start,
                    deadline=block_start + w_max,
                    processing=1,
                )
            )
            jid += 1
    # S3: target jobs spanning everything.
    for j in range(d):
        if psc.target[j] >= 1:
            jobs.append(
                Job(id=jid, release=0, deadline=n * w_max, processing=psc.target[j])
            )
            jid += 1
    instance = Instance(
        jobs=tuple(jobs), g=p, name=f"psc_reduction(n={n},d={d},W={w_max})"
    )
    base = n * (w_max - 1)
    return PSCReduction(
        instance=instance,
        base_open=base,
        budget=base + psc.k,
        special_slots=tuple(special),
        psc=psc,
    )


def active_time_witness_to_psc(
    reduction: PSCReduction, active_slots: tuple[int, ...]
) -> tuple[int, ...]:
    """Vectors picked = blocks whose special slot is active."""
    active = set(active_slots)
    return tuple(
        i for i, t in enumerate(reduction.special_slots) if t in active
    )


def active_time_decision(
    reduction: PSCReduction, *, node_budget: int = 5_000_000
) -> bool:
    """The decision the reduction encodes: ``OPT ≤ base_open + k``.

    An outright-infeasible instance (the target is not coverable even with
    every special slot open) decides ``False``, matching the source
    problem's answer.
    """
    from repro.baselines.exact import solve_exact
    from repro.util.errors import InfeasibleInstanceError

    try:
        return (
            solve_exact(reduction.instance, node_budget=node_budget).optimum
            <= reduction.budget
        )
    except InfeasibleInstanceError:
        return False


# ---------------------------------------------------------------------------
# Full chain helper
# ---------------------------------------------------------------------------


def set_cover_to_active_time(sc: SetCoverInstance) -> PSCReduction:
    """Compose both reductions: set cover → PSC → nested active time."""
    return psc_to_active_time(set_cover_to_psc(sc))

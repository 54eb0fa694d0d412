"""Section 6 NP-completeness machinery: problems and reductions."""

from repro.hardness.prefix_sum_cover import (
    PrefixSumCoverInstance,
    brute_force_psc,
    prefix_dominates,
    psc_decision,
)
from repro.hardness.reductions import (
    PSCReduction,
    active_time_decision,
    active_time_witness_to_psc,
    psc_to_active_time,
    set_cover_to_active_time,
    set_cover_to_psc,
    set_cover_witness_to_psc,
)
from repro.hardness.set_cover import (
    SetCoverInstance,
    brute_force_set_cover,
    greedy_set_cover,
    set_cover_decision,
)

__all__ = [
    "SetCoverInstance",
    "brute_force_set_cover",
    "greedy_set_cover",
    "set_cover_decision",
    "PrefixSumCoverInstance",
    "prefix_dominates",
    "brute_force_psc",
    "psc_decision",
    "set_cover_to_psc",
    "psc_to_active_time",
    "set_cover_to_active_time",
    "PSCReduction",
    "active_time_decision",
    "active_time_witness_to_psc",
    "set_cover_witness_to_psc",
]

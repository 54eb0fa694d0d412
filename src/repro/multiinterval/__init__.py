"""Multi-interval active time ([2]'s generalization, H_g-approx via [12])."""

from repro.multiinterval.coverage import (
    coverage,
    extract_assignment,
    feasible,
    validate_assignment,
)
from repro.multiinterval.generators import random_multi_interval, shift_family
from repro.multiinterval.greedy import (
    GreedyResult,
    exact_optimum,
    harmonic,
    wolsey_greedy,
)
from repro.multiinterval.model import MultiInstance, MultiJob

__all__ = [
    "MultiJob",
    "MultiInstance",
    "coverage",
    "feasible",
    "extract_assignment",
    "validate_assignment",
    "wolsey_greedy",
    "GreedyResult",
    "exact_optimum",
    "harmonic",
    "random_multi_interval",
    "shift_family",
]

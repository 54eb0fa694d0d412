"""Linear programs: generic model, HiGHS backend, the paper's relaxations."""

from repro.lp.backend import LinearProgram, LPSolution
from repro.lp.cw_lp import build_cw_lp, forced_occupancy, solve_cw_lp
from repro.lp.natural_lp import SlotLPSolution, build_natural_lp, solve_natural_lp
from repro.lp.nested_lp import (
    NestedLPSolution,
    build_nested_lp,
    solve_nested_lp,
)
from repro.lp.perturbed import convex_combination, solve_with_weights

__all__ = [
    "LinearProgram",
    "LPSolution",
    "solve_with_weights",
    "convex_combination",
    "build_nested_lp",
    "solve_nested_lp",
    "NestedLPSolution",
    "build_natural_lp",
    "solve_natural_lp",
    "SlotLPSolution",
    "build_cw_lp",
    "solve_cw_lp",
    "forced_occupancy",
]

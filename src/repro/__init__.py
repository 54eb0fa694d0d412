"""repro — nested active-time scheduling (SPAA 2022 reproduction).

Public API tour:

>>> from repro import Instance, Job, solve_nested
>>> inst = Instance.from_triples([(0, 4, 2), (0, 2, 1), (2, 4, 1)], g=2)
>>> result = solve_nested(inst)
>>> result.schedule.is_valid
True

Subpackages
-----------
``repro.instances``  jobs, generators, named families, serialization
``repro.tree``       laminar window forests and canonicalization
``repro.flow``       Dinic max-flow and feasibility tests
``repro.lp``         the strengthened tree LP, natural LP, CW LP
``repro.solver``     solver service: solve cache and stats around HiGHS
``repro.obs``        counters: named groups, scopes, merge, render
``repro.core``       the 9/5-approximation pipeline (the paper's result)
``repro.baselines``  greedy 3-/2-approximations, exact search, bounds
``repro.hardness``   Section 6: prefix sum cover and both reductions
``repro.analysis``   integrality gaps, ratio reports, table rendering
``repro.simulate``   discrete-time batch-machine simulator
"""

from repro.core.algorithm import NestedResult, solve_nested
from repro.core.rounding import APPROX_FACTOR
from repro.core.schedule import Schedule
from repro.instances.jobs import Instance, Job
from repro.util.errors import (
    InfeasibleInstanceError,
    InvalidInstanceError,
    NotLaminarError,
    ReproError,
    SolverError,
)

__version__ = "1.0.0"

__all__ = [
    "Job",
    "Instance",
    "Schedule",
    "solve_nested",
    "NestedResult",
    "APPROX_FACTOR",
    "ReproError",
    "InvalidInstanceError",
    "NotLaminarError",
    "InfeasibleInstanceError",
    "SolverError",
    "__version__",
]

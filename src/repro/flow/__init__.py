"""Max-flow substrate and flow-based feasibility tests."""

from repro.flow.assignment import schedule_from_node_counts, spread_runs
from repro.flow.csr import CSRMaxFlow
from repro.flow.dinic import MaxFlow
from repro.flow.feasibility import (
    all_slots_feasible,
    extract_schedule,
    node_assignment,
    node_feasible,
    node_prober,
    slot_feasible,
)
from repro.flow.incremental import (
    Buckets,
    ClassFlowProber,
    DynamicFlowProber,
    IncrementalFlow,
    flow_stats,
    make_prober,
)

__all__ = [
    "MaxFlow",
    "CSRMaxFlow",
    "slot_feasible",
    "extract_schedule",
    "all_slots_feasible",
    "node_feasible",
    "node_assignment",
    "node_prober",
    "spread_runs",
    "schedule_from_node_counts",
    "IncrementalFlow",
    "Buckets",
    "ClassFlowProber",
    "DynamicFlowProber",
    "make_prober",
    "flow_stats",
]

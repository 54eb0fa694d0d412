"""Measure where the flow prober's CSR kernel starts to beat the object kernel.

:class:`repro.flow.incremental.ClassFlowProber` runs on the list-backed
``MaxFlow`` below ``SMALL_NETWORK_ARCS`` arcs and on ``CSRMaxFlow`` at or
above it.  This script times both kernels, forced one at a time, on the
networks the probers actually build:

* cold: one ``all_slots_feasible`` probe (build the segment network,
  write every capacity, augment once);
* warm greedy: ``minimal_feasible_slots(order="right_to_left")``, a
  binary search per coverage segment, warm on one segment network;
* warm exact: ``solve_exact`` (greedy incumbent plus branch and bound);
* cold node flow: one ``node_assignment`` on the rounded ``x̃`` of a
  ``solve_nested`` run (build the open-node Lemma 4.1 network, probe
  once, read the flows).

Instances are the benchmark's planted laminar shapes (T = 3n, n/4
windows, p <= 3), so the arc counts cover the corpus, ``verify-campaign``
and ``batch-dense`` sizes.  It then checks that every prober network of
three ``batch-dense`` cycles, the all-slots segment network (built by
the traced replay and by a failed solve) and ``node_assignment``'s
open-node network, is at or above the constant, so that workload stays
on the CSR kernel.  Run from the repository
root::

    PYTHONPATH=src python scripts/flow_kernel_sizing.py [--quick]

Times are medians of repeated runs, in microseconds of wall time.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from closed_loop import BATCH_DENSE, op_instance  # noqa: E402
from planted import planted_instance  # noqa: E402

from repro.baselines.exact import BudgetExceeded, slot_classes, solve_exact  # noqa: E402
from repro.baselines.minimal_feasible import minimal_feasible_slots  # noqa: E402
from repro.core.algorithm import solve_nested  # noqa: E402
from repro.flow import incremental  # noqa: E402
from repro.flow.feasibility import (  # noqa: E402
    all_slots_feasible,
    coverage_segments,
    node_assignment,
)
from repro.instances.io import instance_from_dict  # noqa: E402

#: Forced limits: every network on CSR, every network on the object kernel.
FORCE = {"csr": 0, "object": 10**12}


def _median_us(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times)


def _per_kernel(fn, repeats: int) -> dict[str, float]:
    saved = incremental.SMALL_NETWORK_ARCS
    try:
        out = {}
        for name, limit in FORCE.items():
            incremental.SMALL_NETWORK_ARCS = limit
            fn()  # warm-up, and the same work for both kernels
            out[name] = _median_us(fn, repeats)
        return out
    finally:
        incremental.SMALL_NETWORK_ARCS = saved


def segment_arcs(inst) -> int:
    """Arcs of the segment prober network (``all_slots_feasible``,
    greedy deactivation)."""
    starts, _, buckets = coverage_segments(inst)
    return inst.n + int(buckets.ptr[-1]) + len(starts)


def class_arcs(inst) -> int:
    """Arcs of the exact search's slot-class prober network."""
    classes = slot_classes(inst)
    return inst.n + sum(len(c.jobs) for c in classes) + len(classes)


def node_case(inst):
    """``node_assignment``'s arguments after a ``solve_nested`` run: the
    canonical instance, forest, job nodes and the rounded ``x̃``."""
    result = solve_nested(inst)
    canon = result.canonical
    x = result.rounding.x_tilde.astype(int)
    return canon.instance, canon.forest, canon.job_node, x


def node_arcs(instance, forest, job_node, x) -> int:
    """Arcs of ``node_assignment``'s network: source arcs, one arc from
    each job to each open node of Des(k(j)), one sink arc per open node."""
    open_pre = np.asarray(x)[forest.preorder] > 0
    before = np.concatenate(([0], np.cumsum(open_pre)))
    k_of = [job_node[job.id] for job in instance.jobs]
    tin, tout = np.asarray(forest.tin)[k_of], np.asarray(forest.tout)[k_of]
    return instance.n + int((before[tout] - before[tin]).sum()) + int(before[-1])


def _instance(n: int, seed: int):
    doc = planted_instance(
        seed, n=n, horizon=3 * n, g=4, windows=max(2, n // 4), p_max=3
    )
    return instance_from_dict(doc)


def _exact(inst):
    try:
        solve_exact(inst, node_budget=2000)
    except BudgetExceeded:
        pass


def _row(label, arcs, times):
    ratio = times["object"] / times["csr"]
    print(
        f"| {label} | {arcs} | {times['csr']:.0f} | {times['object']:.0f} "
        f"| {ratio:.2f} |"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--quick", action="store_true", help="fewer sizes and repeats")
    args = ap.parse_args(argv)
    repeats = 5 if args.quick else 15
    cold_sizes = (5, 20, 80, 200, 320, 640) if args.quick else (
        5, 10, 20, 40, 60, 70, 80, 90, 100, 120, 160, 240, 320, 640, 1000, 2000
    )
    greedy_sizes = (5, 20, 80, 160) if args.quick else (
        5, 10, 20, 40, 80, 120, 160, 240, 320, 400, 480
    )
    exact_sizes = (5, 8, 12) if args.quick else (5, 6, 8, 10, 12, 16)
    print(f"SMALL_NETWORK_ARCS = {incremental.SMALL_NETWORK_ARCS}\n")
    print("| cold probe, n | arcs | CSR µs | object µs | object/CSR |")
    print("|---|---|---|---|---|")
    for n in cold_sizes:
        inst = _instance(n, seed=n)
        times = _per_kernel(lambda: all_slots_feasible(inst), repeats)
        _row(n, segment_arcs(inst), times)
    print("\n| greedy, n | arcs | CSR µs | object µs | object/CSR |")
    print("|---|---|---|---|---|")
    for n in greedy_sizes:
        inst = _instance(n, seed=n)
        times = _per_kernel(
            lambda: minimal_feasible_slots(inst, order="right_to_left"),
            max(3, repeats // 3),
        )
        _row(n, segment_arcs(inst), times)
    print("\n| exact, n | arcs | CSR µs | object µs | object/CSR |")
    print("|---|---|---|---|---|")
    for n in exact_sizes:
        inst = _instance(n, seed=n)
        times = _per_kernel(lambda: _exact(inst), max(3, repeats // 3))
        _row(n, class_arcs(inst), times)

    print("\n| node flow, n | arcs | CSR µs | object µs | object/CSR |")
    print("|---|---|---|---|---|")
    for n in cold_sizes:
        case = node_case(_instance(n, seed=n))
        times = _per_kernel(lambda: node_assignment(*case), repeats)
        _row(n, node_arcs(*case), times)

    # batch-dense: every prober network it can build (the all-slots
    # segment network and node_assignment's) must stay on the CSR
    # kernel, so that workload does not move.
    segments, nodes = [], []
    for seed in (1, 2, 3):
        for k in range(len(BATCH_DENSE)):
            inst = instance_from_dict(op_instance("batch-dense", seed, k))
            segments.append(segment_arcs(inst))
            nodes.append(node_arcs(*node_case(inst)))
    for label, arcs in (("segment", segments), ("node_assignment", nodes)):
        smallest = min(arcs)
        print(f"\nsmallest batch-dense {label} network: {smallest} arcs")
        assert smallest >= incremental.SMALL_NETWORK_ARCS, (
            f"a batch-dense {label} network ({smallest} arcs) would run on "
            f"the object kernel (SMALL_NETWORK_ARCS = "
            f"{incremental.SMALL_NETWORK_ARCS})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

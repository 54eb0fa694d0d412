"""Closed-loop workloads: one process solves one instance after another.

* ``batch-dense`` — unique planted instances with 300–2000 jobs, T = 3n and
  g in {2, 4, 8}.  No input repeats, so the solve cache never hits and
  LP (1) dominates.
* ``long-horizon`` — 10–40 jobs over T from 2·10^4 to 10^5 slots.  The
  per-slot paths (all-slots precheck, slot assignment, validation)
  dominate and the LP is small.

Sizes and window trees follow a fixed cycle, so every run solves the same
mix of shapes and the seed only changes the jobs.  An operation is: parse the
instance document, ``solve_nested``, encode the schedule.  The independent
checker then validates the encoded answer outside the timed region.
"""

from __future__ import annotations

import math
from time import perf_counter, process_time

from checker import check_schedule
from common import ScaledTimes, own_peak_rss_mb, ready
from planted import planted_instance

#: Fewest operations a run measures, so ten samples lie beyond p90.
MIN_OPS = 100
#: Share of a run's operations, the slowest, that run a second time: enough
#: to take in the operations around p90.
RECHECK_SHARE = 0.15
#: Operations per second at the time the benchmark was defined.  A run
#: measures a fixed number of whole cycles, about ``--seconds`` of work at
#: this rate, so the parent and a change solve exactly the same inputs.
NOMINAL_OPS_PER_S = {"batch-dense": 3.0, "long-horizon": 6.5}

# (n, g, horizon, p_max, windows) per cycle position.  Sizes run from 300
# to 2000 jobs, dense at the small end to keep a run of MIN_OPS short; g
# grows with n (2, then 4, then 8) so no shape dominates the run and the
# percentiles are not decided by a few outliers.
BATCH_DENSE = tuple(
    (n, (2, 4, 8)[k * 3 // 20], 3 * n, 3, n // 4)
    for k, n in enumerate(round(300 * (2000 / 300) ** ((k / 19) ** 2.5)) for k in range(20))
)

LONG_HORIZON = tuple(
    (n, g, horizon, horizon // 20, max(4, n // 2))
    for g, (n, horizon) in zip(
        (2, 4, 8) * 4,
        (
            (10, 20_000),
            (40, 20_000),
            (25, 30_000),
            (20, 40_000),
            (30, 50_000),
            (15, 60_000),
            (10, 70_000),
            (40, 70_000),
            (20, 100_000),
            (30, 100_000),
        ),
    )
)

CYCLES = {"batch-dense": BATCH_DENSE, "long-horizon": LONG_HORIZON}


def op_instance(workload: str, seed: int, k: int) -> dict:
    """Input document of operation ``k`` (a pure function of the seed)."""
    cycle = CYCLES[workload]
    n, g, horizon, p_max, windows = cycle[k % len(cycle)]
    return planted_instance(
        seed * 1_000_003 + k,
        n=n,
        horizon=horizon,
        g=g,
        windows=windows,
        p_max=p_max,
        shape_seed=k % len(cycle),
        name=f"{workload}-{seed}-{k}",
    )


class Program:
    """The program entry points an operation calls (imported once)."""

    def __init__(self) -> None:
        from repro.core.algorithm import solve_nested
        from repro.instances.io import instance_from_dict, schedule_to_dict
        from repro.solver import clear_solver_cache, solver_stats
        from repro.solver.cache import clear_basis_cache

        self.solve_nested = solve_nested
        self.parse = instance_from_dict
        self.encode = schedule_to_dict
        self.solver_stats = solver_stats
        self.clear_caches = lambda: (clear_solver_cache(), clear_basis_cache())

    def run(self, doc: dict):
        """One untraced operation: returns (encoded schedule, result)."""
        result = self.solve_nested(self.parse(doc))
        return self.encode(result.schedule), result


def setup(workload: str, seed: int) -> tuple[Program, list[dict]]:
    """Import the program, make the first cycle of inputs, warm up."""
    program = Program()
    docs = [op_instance(workload, seed, k) for k in range(len(CYCLES[workload]))]
    warm = planted_instance(seed, n=40, horizon=120, g=4, windows=10, p_max=3)
    program.run(warm)
    return program, docs


def setup_only(workload: str, seed: int, seconds: float) -> None:
    setup(workload, seed)
    ready()


def run_length(workload: str, seconds: float) -> int:
    """Operations in a run: whole cycles, at least MIN_OPS."""
    cycle = len(CYCLES[workload])
    ops = max(MIN_OPS, seconds * NOMINAL_OPS_PER_S[workload])
    return cycle * math.ceil(ops / cycle)


def measure(workload: str, seed: int, seconds: float) -> dict:
    """The untraced run.  Throughput is operations over their summed time.

    Times are this process's CPU time (the work is single-threaded) scaled
    to the reference host speed (``common.ScaledTimes``).

    After the pass the slowest 15% of the operations run again, caches
    cleared so they do the same work, and keep the lower of their two
    times: a change of host speed in the middle of a long solve is not
    seen by the probes on either side of it.
    """
    program, docs = setup(workload, seed)
    ready()
    total = run_length(workload, seconds)
    active: dict[int, int] = {}
    ratios: list[float] = []
    failed: set[int] = set()
    problems: list[str] = []

    def attempt(k: int, clock: ScaledTimes):
        """Operation ``k`` once: (its input, (encoded, result) or None)."""
        doc = docs[k] if k < len(docs) else op_instance(workload, seed, k)
        t0 = process_time()
        try:
            outcome = program.run(doc)
        except Exception as exc:  # a typed error is a failed operation
            outcome = None
            failed.add(k)
            problems.append(f"op {k}: {type(exc).__name__}: {exc}")
        clock.add(process_time() - t0)
        return doc, outcome

    clock = ScaledTimes()
    for k in range(total):
        doc, outcome = attempt(k, clock)
        if outcome is None:
            continue
        encoded, result = outcome
        bad = check_schedule(doc, encoded["assignment"], result.active_time, result.lp_value)
        if bad:
            failed.add(k)
            problems.append(f"op {k}: {bad[0]}")
        active[k] = result.active_time
        ratios.append(result.lp_ratio)
    clock.flush()
    latencies = clock.times

    slow = sorted(range(total), key=latencies.__getitem__)[total - round(total * RECHECK_SHARE) :]
    again = ScaledTimes()
    for k in slow:
        program.clear_caches()
        outcome = attempt(k, again)[1]
        if outcome is not None and outcome[1].active_time != active.get(k):
            failed.add(k)
            problems.append(f"op {k}: active_time {outcome[1].active_time} on the second run")
    again.flush()
    for k, seconds_again in zip(slow, again.times):
        latencies[k] = min(latencies[k], seconds_again)
    return {
        "attempted": total,
        "failed": len(failed),
        "problems": problems[:5],
        "samples": len(latencies),
        "throughput_ips": total / sum(latencies),
        "latencies_ms": [t * 1e3 for t in latencies],
        "lp_ratio_mean": sum(ratios) / len(ratios) if ratios else 0.0,
        "peak_rss_mb": own_peak_rss_mb(),
    }


def _replay(program: Program, tracer, doc: dict):
    """``solve_nested`` stage by stage through the layers' public functions."""
    from repro.core.opt_thresholds import compute_thresholds
    from repro.core.rounding import round_solution
    from repro.core.schedule import Schedule
    from repro.core.transform import push_down
    from repro.flow.assignment import schedule_from_node_counts
    from repro.flow.feasibility import all_slots_feasible, node_assignment
    from repro.lp.nested_lp import solve_nested_lp
    from repro.tree.canonical import canonicalize

    span = tracer.span
    with span("instances.io.parse"):
        inst = program.parse(doc)
    inst.require_laminar()
    with span("flow.feasibility.precheck"):
        if not all_slots_feasible(inst):
            raise ValueError(f"planted instance {inst.name!r} reported infeasible")
    with span("tree.canonical"):
        canonical = canonicalize(inst)
    forest, job_node = canonical.forest, canonical.job_node
    with span("core.opt_thresholds"):
        thresholds = compute_thresholds(
            forest, job_node, {j.id: j for j in canonical.instance.jobs}, inst.g
        )
    with span("lp.nested_lp"):
        lp_sol = solve_nested_lp(canonical, thresholds=thresholds)
    with span("core.transform"):
        transformed = push_down(forest, lp_sol.x, lp_sol.y)
    with span("core.rounding"):
        rounding = round_solution(forest, transformed.x, transformed.topmost)
    x_tilde = rounding.x_tilde.astype(int)
    with span("flow.feasibility.node_assignment"):
        y_int = node_assignment(canonical.instance, forest, job_node, x_tilde)
    if y_int is None:
        # solve_nested would run its repair loop here; the replay stops.
        return None, lp_sol.value
    with span("flow.assignment"):
        sched = schedule_from_node_counts(canonical.instance, forest, job_node, x_tilde, y_int)
    with span("core.schedule.validate"):
        schedule = Schedule.from_assignment(inst, sched.assignment)
        schedule.require_valid()
    with span("instances.io.encode"):
        encoded = program.encode(schedule)
    return encoded, lp_sol.value


def instrument(tracer) -> list:
    """Spans inside ``solve_nested_lp``: LP build, solve service, backend."""
    import repro.lp.nested_lp as nested_lp
    from repro.solver import service

    undo = [
        tracer.wrap(nested_lp, "build_nested_lp", "lp.nested_lp.build"),
        tracer.wrap(service.SolverService, "solve", "solver"),
    ]
    for name in list(service.BACKENDS):
        undo.append(tracer.wrap(service.BACKENDS, name, "solver.backend"))
    return undo


def traced(workload: str, seed: int, seconds: float, tracer) -> dict:
    """Pairs of (untraced solve, traced replay) on each input.

    Caches are cleared before every solve so both sides do the same work;
    the side that runs first alternates.  Returns per-layer self times per
    operation and the tracing overhead.
    """
    program, docs = setup(workload, seed)
    ready()
    cycle = len(CYCLES[workload])
    plain = spanned = 0.0
    failed = 0
    problems: list[str] = []
    hits = solves = rows = cols = 0
    k = 0
    while k % cycle or plain + spanned < seconds:
        doc = docs[k] if k < len(docs) else op_instance(workload, seed, k)
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            program.clear_caches()
            if side == 0:
                t0 = perf_counter()
                _, expected = program.run(doc)
                plain += perf_counter() - t0
                continue
            tracer.op = k
            s0 = program.solver_stats()
            undo = instrument(tracer)
            try:
                t0 = perf_counter()
                with tracer.span("op"):
                    encoded, lp_value = _replay(program, tracer, doc)
                spanned += perf_counter() - t0
            finally:
                for restore in undo:
                    restore()
            s1 = program.solver_stats()
            hits += s1["cache_hits"] - s0["cache_hits"]
            solves += s1["solves"] - s0["solves"]
            rows += s1["rows"] - s0["rows"]
            cols += s1["cols"] - s0["cols"]
        k += 1
        if encoded is None:
            failed += 1
            problems.append(f"op {k - 1}: replay needed a repair")
            continue
        active = len({t for slots in encoded["assignment"].values() for t in slots})
        bad = check_schedule(doc, encoded["assignment"], active, lp_value)
        if active != expected.active_time:
            bad.append(f"replay active_time {active} != solve_nested {expected.active_time}")
        if bad:
            failed += 1
            problems.append(f"op {k - 1}: {bad[0]}")
    self_ms = {name: t * 1e3 / k for name, t in tracer.self_times().items()}
    layers = {f"{name}_ms": ms for name, ms in self_ms.items()}
    layers.update(
        {
            "lp.rows": rows / k,
            "lp.cols": cols / k,
            "solver.cache_hits": float(hits),
            "solver.cache_hit_ratio": hits / solves if solves else 0.0,
            "trace.overhead_frac": spanned / plain - 1.0,
        }
    )
    return {"attempted": k, "failed": failed, "problems": problems[:5], "layers": layers}

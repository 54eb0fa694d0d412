"""Worker-side request execution for the scheduling service.

Every function here is addressed by its dotted
``"repro.service.workers:<name>"`` reference through the
:class:`repro.analysis.parallel.WorkerPool` transport, so only plain
JSON-shaped payload dicts cross the process boundary — the same contract
:func:`repro.analysis.parallel.run_jobs` uses for benchmark fan-out.

Each worker returns a result dict that always carries ``solver`` and
``flow`` counter *deltas* (:func:`repro.obs.delta` of
:func:`process_counters` around that unit of work, in whichever process
ran it).  The server merges pooled deltas into its own aggregate so
``/metrics`` reflects work done in worker processes, whose
process-global counters would otherwise be invisible.

The deadline contract lives in :func:`solve_part`: a request
``deadline_ms`` is mapped onto the branch-and-bound ``node_budget`` (the
repo's existing degradation path) and a tripped budget returns the
picklable :class:`~repro.baselines.exact.BudgetExceeded` incumbent
marked ``degraded: true`` — a slow instance degrades, it never hangs
the connection.
"""

from __future__ import annotations

from typing import Any

from repro import obs
from repro.flow.incremental import flow_stats
from repro.instances.io import (
    instance_from_dict,
    instance_to_dict,
    schedule_to_dict,
)
from repro.solver import solver_stats

#: Conversion rate from a request deadline to a branch-and-bound node
#: budget.  Deliberately conservative (the search expands well over
#: 2000 nodes/ms on commodity hardware), so a mapped budget trips
#: *before* the wall-clock deadline rather than after it.
NODES_PER_MS = 2_000

#: Algorithms ``/solve`` accepts, mirroring the CLI ``solve`` choices
#: that make sense per-request (online policies need a trace, not an
#: instance snapshot).
SOLVE_ALGORITHMS = ("nested", "greedy", "kk", "exact")


def node_budget_for(
    deadline_ms: float | None, node_budget: int | None
) -> int | None:
    """Resolve the effective exact-search budget for a request.

    An explicit ``node_budget`` wins; otherwise ``deadline_ms`` is
    converted at :data:`NODES_PER_MS`.  ``None`` means "no cap" (the
    solver's own default applies).
    """
    if node_budget is not None:
        return node_budget
    if deadline_ms is None:
        return None
    return max(1, int(deadline_ms * NODES_PER_MS))


def process_counters() -> dict[str, Any]:
    """This process's ``solver`` and ``flow`` counter snapshots."""
    return {"solver": solver_stats(), "flow": flow_stats()}


def _solve(doc: dict[str, Any], options: dict[str, Any]) -> dict[str, Any]:
    instance = instance_from_dict(doc)
    policy = options.get("policy")
    if policy is not None:
        from repro.policies import run_policy

        result = run_policy(policy, instance)
        return {
            "algorithm": policy,
            "policy": policy,
            "policy_kind": result.kind,
            "policy_stats": result.stats,
            "degraded": bool(result.stats.get("degraded")),
            "part": instance.name,
            "active_time": result.active_time,
            "schedule": schedule_to_dict(result.schedule),
        }
    algorithm = options.get("algorithm", "nested")
    out: dict[str, Any] = {
        "algorithm": algorithm,
        "degraded": False,
        "part": instance.name,
    }
    if algorithm == "nested":
        from repro.core.algorithm import solve_nested

        result = solve_nested(instance)
        schedule = result.schedule
        out["lp_value"] = result.lp_value
        out["repairs"] = result.repairs
    elif algorithm == "greedy":
        from repro.baselines.minimal_feasible import minimal_feasible_schedule

        schedule = minimal_feasible_schedule(instance)
    elif algorithm == "kk":
        from repro.baselines.kumar_khuller import kumar_khuller_schedule

        schedule = kumar_khuller_schedule(instance)
    elif algorithm == "exact":
        from repro.baselines.exact import BudgetExceeded, solve_exact

        budget = node_budget_for(
            options.get("deadline_ms"), options.get("node_budget")
        )
        kwargs = {} if budget is None else {"node_budget": budget}
        try:
            exact = solve_exact(instance, **kwargs)
            schedule = exact.schedule(instance)
            out["nodes_explored"] = exact.nodes_explored
        except BudgetExceeded as exc:
            incumbent = exc.incumbent()
            if incumbent is None:
                raise
            schedule = incumbent.schedule(instance)
            out["degraded"] = True
            out["degraded_reason"] = str(exc)
            out["nodes_explored"] = incumbent.nodes_explored
    else:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; pick one of {SOLVE_ALGORITHMS}"
        )
    out["active_time"] = schedule.active_time
    out["schedule"] = schedule_to_dict(schedule)
    return out


def solve_part(payload: tuple[dict, dict]) -> dict[str, Any]:
    """Solve one (sub-)instance; the ``/solve`` fan-out unit."""
    doc, options = payload
    before = process_counters()
    result = _solve(doc, options)
    return {**result, **obs.delta(process_counters(), before)}


def _verify(doc: dict[str, Any], options: dict[str, Any]) -> dict[str, Any]:
    from repro.verify.oracle import DEFAULT_EXACT_MAX_JOBS, verify_instance

    instance = instance_from_dict(doc)
    report = verify_instance(
        instance,
        exact_max_jobs=int(
            options.get("exact_max_jobs", DEFAULT_EXACT_MAX_JOBS)
        ),
    )
    return {
        "status": report.status,
        "ok": report.status != "violation",
        "violations": [
            {"prop": v.prop, "detail": v.detail} for v in report.violations
        ],
        "lp_value": report.lp_value,
        "active_time": report.active_time,
        "optimum": report.optimum,
        "instance": instance_to_dict(instance),
    }


def verify_part(payload: tuple[dict, dict]) -> dict[str, Any]:
    """Run the differential oracle on one instance."""
    doc, options = payload
    before = process_counters()
    result = _verify(doc, options)
    return {**result, **obs.delta(process_counters(), before)}


def fuzz_shard(payload: dict[str, Any]) -> dict[str, Any]:
    """Run one shard of a ``/fuzz`` campaign and return its report dict.

    ``payload`` is the fields of a :class:`~repro.verify.fuzz.FuzzConfig`
    the service has already validated, one per shard.  The service
    reassembles the shards with
    :func:`repro.verify.fuzz.merge_fuzz_reports` — the identical
    machinery the CI fuzz matrix rests on, so a served campaign equals
    the unsharded CLI run.
    """
    from repro.verify.fuzz import FuzzConfig, fuzz_report_dict, run_fuzz

    config = FuzzConfig(**payload)
    before = process_counters()
    report = fuzz_report_dict(run_fuzz(config, out_dir=None))
    return {"report": report, **obs.delta(process_counters(), before)}

"""Worker-side request execution for the scheduling service.

Every function here is addressed by its dotted
``"repro.service.workers:<name>"`` reference through the
:class:`repro.analysis.parallel.WorkerPool` transport, so only plain
JSON-shaped payload dicts cross the process boundary — the same pool
the benchmark harness fans whole benchmarks out on.

Each worker returns a result dict that always carries the ``solver``
and ``flow`` blocks of that unit of work, read from an
:func:`repro.obs.scope` around it, so concurrent requests never see
each other's counts.  The server merges pooled blocks into its own
aggregate so ``/metrics`` reflects work done in worker processes, whose
process-global counters would otherwise be invisible.

:func:`solve_part` runs every ``/solve`` part through the policy
registry, ``make_policy(name).run(instance)``, whether the request named
an ``algorithm`` or a ``policy``.  The deadline contract lives there
too: an ``algorithm="exact"`` request's ``deadline_ms`` is mapped onto
:class:`~repro.policies.offline.ExactPolicy`'s ``node_budget``, and a
tripped budget degrades to the search's incumbent (``degraded: true``
in the policy stats) — a slow instance degrades, it never hangs the
connection.
"""

from __future__ import annotations

from typing import Any

from repro import obs
from repro.baselines.exact import DEFAULT_NODE_BUDGET
from repro.instances.io import instance_from_dict, schedule_to_dict

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
    converted at :data:`NODES_PER_MS`.  ``None`` means neither was
    given: the search runs at its default, ``DEFAULT_NODE_BUDGET``.
    """
    if node_budget is not None:
        return node_budget
    if deadline_ms is None:
        return None
    return max(1, int(deadline_ms * NODES_PER_MS))


def _counted(work: Any, *args: Any) -> dict[str, Any]:
    """``work(*args)`` with the ``solver``/``flow`` blocks it counted."""
    with obs.scope() as counted:
        result = work(*args)
    return {**result, "solver": counted["solver"], "flow": counted["flow"]}


def _solve(doc: dict[str, Any], options: dict[str, Any]) -> dict[str, Any]:
    from repro.policies import make_policy

    instance = instance_from_dict(doc)
    name = options.get("policy") or options.get("algorithm", "nested")
    params = {}
    if name == "exact" and "policy" not in options:
        budget = node_budget_for(
            options.get("deadline_ms"), options.get("node_budget")
        )
        params["node_budget"] = budget or DEFAULT_NODE_BUDGET
    result = make_policy(name, **params).run(instance)
    return {
        "kind": result.kind,
        "stats": result.stats,
        "active_time": result.active_time,
        "schedule": schedule_to_dict(result.schedule),
    }


def solve_part(payload: tuple[dict, dict]) -> dict[str, Any]:
    """Solve one (sub-)instance; the ``/solve`` fan-out unit."""
    return _counted(_solve, *payload)


def _verify(doc: dict[str, Any], options: dict[str, Any]) -> dict[str, Any]:
    from repro.verify.oracle import DEFAULT_EXACT_MAX_JOBS, verify_instance

    report = verify_instance(
        instance_from_dict(doc),
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
    }


def verify_part(payload: tuple[dict, dict]) -> dict[str, Any]:
    """Run the differential oracle on one instance."""
    return _counted(_verify, *payload)


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

    # The campaign reads its own solver/flow blocks into the report.
    report = fuzz_report_dict(run_fuzz(FuzzConfig(**payload)))
    return {"report": report, "solver": report["solver"], "flow": report["flow"]}

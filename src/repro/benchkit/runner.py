"""Benchmark execution: one benchmark, a selection, or the whole suite.

:func:`execute` is the single code path every entry point funnels
through — the harness CLI, the per-script ``--json`` mains and the
tests — so artifacts are identical no matter how a benchmark was
launched.  Each benchmark runs against a *fresh*
:class:`~repro.solver.SolverService` (restored afterwards): the recorded
solver stats are attributable to the benchmark alone and do not depend
on suite order or ``--jobs``.

Fan-out across benchmarks goes through
:class:`repro.analysis.parallel.WorkerPool` — process isolation also
makes benchmarks that install their own solver service (E14) safe to
run concurrently with the rest.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Sequence

from repro.analysis.parallel import WorkerPool
from repro.benchkit.registry import (
    Benchmark,
    BenchContext,
    discover,
    resolve_ids,
)
from repro.benchkit.result import (
    DEFAULT_SEED,
    TIERS,
    BenchResult,
    environment_fingerprint,
)

def default_out_dir() -> Path:
    """Default artifact directory for ``repro.benchkit run``: the repo root.

    ``BENCH_<EID>.json`` files at the checkout root are the benchmark
    trajectory the project tracks across PRs, so a plain ``run`` must
    land them there; CI and ad-hoc sweeps override with ``--out``.
    """
    from repro.benchkit.registry import default_benchmarks_dir

    bench_dir = default_benchmarks_dir()
    if bench_dir.is_dir():
        return bench_dir.resolve().parent
    return Path(".")

_WORKER = "repro.benchkit.runner:_worker_run"


def execute(
    spec: Benchmark, *, tier: str = "full", seed: int = DEFAULT_SEED
) -> BenchResult:
    """Run one registered benchmark and return its filled artifact."""
    if tier not in TIERS:
        raise ValueError(f"tier {tier!r} not in {TIERS}")
    from repro.solver import SolverService, get_service, set_service

    result = BenchResult(
        bench_id=spec.bench_id,
        title=spec.title,
        claim=spec.claim,
        tier=tier,
        seed=seed,
    )
    ctx = BenchContext(result=result, tier=tier, seed=seed)
    previous = set_service(SolverService())
    try:
        start = perf_counter()
        spec.fn(ctx)
        wall = perf_counter() - start
        # The fresh service counts every solve of the run, in any thread.
        result.solver = get_service().stats.snapshot()
    finally:
        set_service(previous)
    result.add_timing("wall_s", wall)
    result.environment = environment_fingerprint()
    return result


def _worker_run(payload: dict[str, Any]) -> dict[str, Any]:
    """Process-pool worker: discover, execute one benchmark, return doc."""
    specs = discover(payload.get("benchmarks_dir"))
    spec = specs[payload["bench_id"]]
    return execute(
        spec, tier=payload["tier"], seed=payload["seed"]
    ).to_dict()


def run_benchmarks(
    only: str | Sequence[str] | None = None,
    *,
    tier: str = "smoke",
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
    out_dir: str | Path | None = None,
    benchmarks_dir: str | Path | None = None,
) -> list[BenchResult]:
    """Discover, select, run (optionally in parallel), write artifacts."""
    ids = resolve_ids(only, discover(benchmarks_dir))
    payloads = [
        {
            "bench_id": bench_id,
            "tier": tier,
            "seed": seed,
            "benchmarks_dir": str(benchmarks_dir) if benchmarks_dir else None,
        }
        for bench_id in ids
    ]
    with WorkerPool(max(jobs or 1, 1)) as pool:
        docs = pool.map(_WORKER, payloads)
    results = [BenchResult.from_dict(doc) for doc in docs]
    if out_dir is not None:
        for result in results:
            result.write(out_dir)
    return results


def bench_main(
    run_bench: Callable[[BenchContext], None],
    argv: Sequence[str] | None = None,
) -> int:
    """Uniform standalone CLI for one ``bench_e*.py`` script.

    Flags (identical across all 14 scripts)::

        --smoke        run the cheap tier (alias for --tier smoke)
        --tier T       smoke | full              [default: full]
        --seed S       reshuffle every internal seed by S - 2022
        --json OUT     write the BENCH_<ID>.json artifact to OUT

    Exits nonzero when any claim check fails.
    """
    spec: Benchmark | None = getattr(run_bench, "bench_spec", None)
    if spec is None:
        raise TypeError("bench_main needs a @register-ed benchmark function")
    parser = argparse.ArgumentParser(
        description=f"{spec.bench_id} — {spec.title}"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="run the cheap CI tier"
    )
    parser.add_argument(
        "--tier", choices=TIERS, default=None, help="explicit tier selection"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"base seed (default {DEFAULT_SEED}, the baseline seed)",
    )
    parser.add_argument(
        "--json",
        metavar="OUT",
        default=None,
        help="write the artifact JSON into this file or directory",
    )
    args = parser.parse_args(argv)
    if args.smoke and args.tier == "full":
        parser.error("--smoke contradicts --tier full")
    tier = "smoke" if args.smoke else (args.tier or "full")
    result = execute(spec, tier=tier, seed=args.seed)
    print(result.render())
    if args.json:
        target = Path(args.json)
        if target.suffix == ".json":
            target.parent.mkdir(parents=True, exist_ok=True)
            import json as _json

            target.write_text(
                _json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
            )
            written = target
        else:
            written = result.write(target)
        print(f"wrote {written}", file=sys.stderr)
    return 0 if result.passed else 1

"""Command-line interface: ``active-time <subcommand>``.

Subcommands
-----------
``generate``   sample a random instance or a named family → JSON
``solve``      run an algorithm on a JSON instance, print/persist schedule
``evaluate``   compare all algorithms (and OPT when affordable)
``gap``        integrality gaps of the three relaxations on one instance
``inspect``    canonical window tree, lengths and OPT_i thresholds
``bench``      benchmark harness passthrough (``repro.benchkit``)
``fuzz``       differential fuzzing: random instances through the oracle
               (corpus-backed, shardable ``--shard i/n``, resumable
               ``--resume``, shard-report merging ``--merge``)
``corpus``     persistent instance corpus: build / stat
``policies``   policy registry: list / run one / competitive-ratio
               leaderboard / corpus feasibility sweep
``twin``       rescheduling digital twin: record/replay event traces, fuzz
``serve``      long-running HTTP/JSON scheduling service (solve / verify /
               fuzz / healthz / metrics) over a process worker pool
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.gaps import gap_profile
from repro.analysis.metrics import measure_ratios
from repro.analysis.tables import render_table
from repro.baselines.exact import DEFAULT_NODE_BUDGET, BudgetExceeded
from repro.core.algorithm import summary_line
from repro.instances.families import ALL_FAMILIES
from repro.instances.generators import random_general, random_laminar
from repro.instances.io import dump_instance, dump_schedule, load_instance


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.family:
        if args.family not in ALL_FAMILIES:
            print(
                f"unknown family {args.family!r}; choose from "
                f"{sorted(ALL_FAMILIES)}",
                file=sys.stderr,
            )
            return 2
        instance = ALL_FAMILIES[args.family](args.g)
    elif args.general:
        instance = random_general(args.jobs, args.g, seed=args.seed)
    else:
        instance = random_laminar(args.jobs, args.g, seed=args.seed)
    dump_instance(instance, args.output)
    print(instance.describe())
    print(f"wrote {args.output}")
    return 0


#: ``solve --algorithm`` spellings that differ from the registry name.
_SOLVE_POLICY_NAMES = {"lazy-online": "lazy", "eager-online": "eager"}


def _infeasible_line(policy: str, exc: Exception) -> str:
    """The report of a policy that found no schedule: ``online-`` only
    for an online policy, which can fail where an offline one succeeds."""
    from repro.policies import policy_specs

    online = policy_specs()[policy].kind == "online"
    return f"{'online-' if online else ''}infeasible: {exc}"


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.policies import PolicyError, make_policy
    from repro.util.errors import InfeasibleInstanceError

    instance = load_instance(args.instance)
    name = _SOLVE_POLICY_NAMES.get(args.algorithm, args.algorithm)
    params = {"node_budget": args.node_budget} if name == "exact" else {}
    try:
        result = make_policy(name, **params).run(instance)
    except PolicyError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except InfeasibleInstanceError as exc:
        print(_infeasible_line(name, exc), file=sys.stderr)
        return 1
    schedule, stats = result.schedule, result.stats
    if name == "nested":
        print(
            summary_line(
                schedule.active_time,
                stats.get("lp_value", 0.0),
                stats.get("repairs", 0),
            )
        )
    if stats.get("degraded"):
        # The exact search degraded to its incumbent (seeded from the
        # greedy 3-approximation) instead of discarding all progress.
        print(
            f"warning: {stats['degraded_reason']} — emitting the incumbent "
            f"({schedule.active_time} slots, optimality unproven)",
            file=sys.stderr,
        )
    print(f"active_time={schedule.active_time} slots={schedule.active_slots}")
    if args.show:
        from repro.analysis.gantt import render_gantt

        print(render_gantt(schedule))
    if args.output:
        dump_schedule(schedule, args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    report = measure_ratios([instance], with_lp=instance.is_laminar)
    row = report.rows[0]
    table_rows = [
        [name, value, row.ratio(name), row.lp_ratio(name)]
        for name, value in row.values.items()
    ]
    print(
        render_table(
            ["algorithm", "active_time", "vs OPT", "vs LP"],
            table_rows,
            title=f"{instance.describe()}  OPT={row.optimum}",
        )
    )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.core.opt_thresholds import compute_thresholds
    from repro.tree.canonical import canonicalize
    from repro.tree.render import forest_stats, render_forest

    instance = load_instance(args.instance)
    print(instance.describe())
    if not instance.is_laminar:
        print("windows are not laminar; tree view unavailable")
        return 0
    canonical = canonicalize(instance)
    thresholds = compute_thresholds(
        canonical.forest,
        canonical.job_node,
        {j.id: j for j in canonical.instance.jobs},
        canonical.instance.g,
    )
    print(
        render_forest(
            canonical.forest,
            annotate=lambda i: f"omega={thresholds.value(i)}",
        )
    )
    stats = forest_stats(canonical.forest)
    print(
        render_table(
            ["stat", "value"], [[k, v] for k, v in stats.items()],
            title="canonical forest",
        )
    )
    return 0


def _cmd_gap(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    relaxations = (
        ("natural", "cw", "nested")
        if instance.is_laminar
        else ("natural", "cw")
    )
    try:
        reports = gap_profile(instance, relaxations)
    except BudgetExceeded:
        print("exact optimum too expensive for this instance", file=sys.stderr)
        return 1
    rows = [[r.relaxation, r.lp_value, r.optimum, r.gap] for r in reports]
    print(
        render_table(
            ["relaxation", "LP value", "OPT", "gap"],
            rows,
            title=instance.describe(),
        )
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.benchkit.cli import main as benchkit_main

    return benchkit_main(args.benchkit_args)


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import json as _json

    from repro.verify.fuzz import (
        FuzzConfig,
        merge_fuzz_reports,
        render_fuzz_result,
        run_fuzz,
        write_fuzz_report,
    )

    if args.merge:
        docs = []
        for path in args.merge:
            with open(path) as fh:
                docs.append(_json.load(fh))
        merged = merge_fuzz_reports(docs)
        print(
            f"merged {len(docs)} shard report(s): checked={merged['checked']} "
            f"skipped={merged['skipped_infeasible']} "
            f"failures={merged['n_failures']} ok={merged['ok']}"
        )
        if args.report:
            with open(args.report, "w") as fh:
                _json.dump(merged, fh, indent=2)
            print(f"wrote {args.report}")
        return 0 if merged["ok"] else 1

    n_instances = args.n_instances
    if n_instances is None:
        if args.corpus:
            from repro.corpus import read_manifest

            n_instances = read_manifest(args.corpus)["entries"]
        else:
            n_instances = 100
    shard_index, shard_count = 0, 1
    if args.shard:
        from repro.corpus import parse_shard

        shard_index, shard_count = parse_shard(args.shard)
    config = FuzzConfig(
        n_instances=n_instances,
        seed=args.seed,
        family=args.family,
        max_jobs=args.max_jobs,
        exact_max_jobs=args.exact_max_jobs,
        shrink=args.shrink,
        cross_check_flow=args.cross_check_flow,
        corpus=args.corpus,
        shard_index=shard_index,
        shard_count=shard_count,
    )
    result = run_fuzz(
        config, out_dir=args.out, progress=print, checkpoint=args.resume
    )
    print(render_fuzz_result(result))
    if args.report:
        write_fuzz_report(result, args.report)
        print(f"wrote {args.report}")
    return 0 if result.ok else 1


def _cmd_corpus_build(args: argparse.Namespace) -> int:
    from repro.corpus import build_fuzz_corpus
    from repro.verify.fuzz import FuzzConfig

    config = FuzzConfig(
        n_instances=args.n_instances,
        seed=args.seed,
        family=args.family,
        max_jobs=args.max_jobs,
    )
    build_fuzz_corpus(args.output, config, progress=print)
    return 0


def _cmd_corpus_stat(args: argparse.Namespace) -> int:
    from repro.corpus import corpus_stats

    stats = corpus_stats(args.corpus)
    rows = [
        ["entries", stats["entries"]],
        ["total jobs", stats["total_jobs"]],
        ["corpus digest", stats["corpus_digest"][:16]],
    ]
    rows += [[f"family {k}", v] for k, v in stats["families"].items()]
    rows += [[f"meta {k}", v] for k, v in sorted(stats["meta"].items())]
    print(
        render_table(
            ["stat", "value"], rows,
            title=f"corpus {stats['path']} (schema v{stats['schema_version']})",
        )
    )
    print("all entries verified against their content hashes")
    return 0


def _cmd_twin_record(args: argparse.Namespace) -> int:
    from repro.twin import (
        count_kinds,
        dump_trace,
        random_trace,
        trace_from_instance,
    )

    if args.from_instance:
        trace = trace_from_instance(load_instance(args.from_instance))
    else:
        trace = random_trace(
            args.events,
            args.g,
            seed=args.seed,
            p_max=args.p_max,
            slack_max=args.slack_max,
        )
    dump_trace(trace, args.output)
    kinds = ", ".join(f"{k}={v}" for k, v in count_kinds(trace.events).items())
    print(f"trace {trace.name!r}: g={trace.g} {len(trace)} events ({kinds})")
    print(f"wrote {args.output}")
    return 0


def _cmd_twin_replay(args: argparse.Namespace) -> int:
    import json as _json

    from repro.simulate import BatchMachine
    from repro.twin import TwinSession, load_trace, twin_fingerprint

    trace = load_trace(args.trace)
    session = TwinSession(trace.g, start=trace.start)
    diffs = session.replay(trace, strict=args.strict)
    if args.verbose:
        for k, diff in enumerate(diffs):
            flags = "ok" if diff.accepted else "REJECTED"
            print(
                f"#{k:4d} {diff.event.kind:15s} {flags:8s} "
                f"+{list(diff.activated)} -{list(diff.deactivated)} "
                f"active_time={diff.active_time}"
                + (f"  ({diff.detail})" if diff.detail else "")
            )
    accepted = sum(1 for d in diffs if d.accepted)
    print(
        f"replayed {len(diffs)} events: "
        f"{accepted} accepted, {len(diffs) - accepted} rejected, "
        f"active_time={session.active_time} "
        f"(committed {len(session.committed_slots)} slots, "
        f"planned {len(session.open_slots)})"
    )
    print(f"diff-stream fingerprint: {twin_fingerprint(diffs)}")
    if args.audit:
        BatchMachine(trace.g).audit_twin(session)
        print("machine audit: committed history is valid")
    if args.report:
        payload = {
            "trace": str(args.trace),
            "fingerprint": twin_fingerprint(diffs),
            "active_time": session.active_time,
            "counters": session.counters,
            "diffs": [d.to_dict() for d in diffs],
        }
        with open(args.report, "w") as fh:
            _json.dump(payload, fh, indent=2)
        print(f"wrote {args.report}")
    return 0


def _cmd_twin_fuzz(args: argparse.Namespace) -> int:
    from repro.verify.fuzz import (
        TwinFuzzConfig,
        render_twin_fuzz_result,
        run_twin_fuzz,
        write_twin_fuzz_report,
    )

    config = TwinFuzzConfig(
        n_traces=args.n_traces,
        n_events=args.events,
        seed=args.seed,
        g_max=args.g_max,
    )
    result = run_twin_fuzz(config, progress=print)
    print(render_twin_fuzz_result(result))
    if args.report:
        write_twin_fuzz_report(result, args.report)
        print(f"wrote {args.report}")
    return 0 if result.ok else 1


def _cmd_policies_list(args: argparse.Namespace) -> int:
    from repro.policies import policy_specs

    rows = [
        [spec.name, spec.kind, spec.description]
        for spec in policy_specs().values()
    ]
    print(render_table(["policy", "kind", "description"], rows))
    return 0


def _cmd_policies_run(args: argparse.Namespace) -> int:
    from repro.policies import PolicyError, run_policy
    from repro.util.errors import InfeasibleInstanceError

    instance = load_instance(args.instance)
    try:
        result = run_policy(args.policy, instance)
    except PolicyError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except InfeasibleInstanceError as exc:
        print(_infeasible_line(args.policy, exc), file=sys.stderr)
        return 1
    print(f"policy {result.policy} ({result.kind})")
    print(f"active_time {result.active_time}")
    for key, value in sorted(result.stats.items()):
        print(f"{key} {value}")
    if args.output:
        dump_schedule(result.schedule, args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_policies_leaderboard(args: argparse.Namespace) -> int:
    from repro.policies import run_leaderboard

    board = run_leaderboard(
        smoke=args.smoke,
        seed=args.seed,
        policies=args.only.split(",") if args.only else None,
    )
    print(board.render())
    if not board.opt_certified:
        print("note: some optima are budget-limited upper bounds")
    for defect in board.defects:
        print(f"DEFECT: {defect}", file=sys.stderr)
    return 1 if board.defects else 0


def _cmd_policies_sweep(args: argparse.Namespace) -> int:
    import json as _json
    from dataclasses import asdict

    from repro.corpus.store import iter_corpus, parse_shard
    from repro.policies import feasibility_sweep

    shard = parse_shard(args.shard) if args.shard else None
    instances = (
        entry.instance()
        for entry in iter_corpus(args.corpus, shard=shard, limit=args.limit)
    )
    report = feasibility_sweep(
        instances,
        policies=args.only.split(",") if args.only else None,
    )
    print(report.summary())
    for violation in report.violations:
        print(f"VIOLATION: {violation}", file=sys.stderr)
    if args.report:
        with open(args.report, "w") as fh:
            _json.dump(asdict(report), fh, indent=2)
        print(f"wrote {args.report}")
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import serve

    return serve(
        host=args.host,
        port=args.port,
        # --workers 0 means "size the pool to the machine".
        workers=args.workers if args.workers >= 1 else None,
        max_body=args.max_body,
        split_jobs=args.split_jobs,
        verbose=args.verbose,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="active-time",
        description="Nested active-time scheduling toolkit (SPAA 2022 reproduction)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print solver service counters (solves, cache hits, backend time) "
        "and flow engine counters (networks, probes, repairs) after the "
        "command",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample an instance to JSON")
    gen.add_argument("output", help="output JSON path")
    gen.add_argument("--jobs", type=int, default=12)
    gen.add_argument("--g", type=int, default=3)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--family", help=f"one of {sorted(ALL_FAMILIES)}")
    gen.add_argument(
        "--general", action="store_true", help="allow crossing windows"
    )
    gen.set_defaults(func=_cmd_generate)

    solve = sub.add_parser("solve", help="schedule a JSON instance")
    solve.add_argument("instance")
    solve.add_argument(
        "--algorithm",
        default="nested",
        choices=["nested", "greedy", "kk", "exact", "lazy-online", "eager-online"],
    )
    solve.add_argument("--output", help="write the schedule JSON here")
    solve.add_argument(
        "--show", action="store_true", help="print an ASCII Gantt chart"
    )
    solve.add_argument(
        "--node-budget",
        type=int,
        default=DEFAULT_NODE_BUDGET,
        help="search-node cap for --algorithm exact; past it the best "
        "incumbent is emitted with a warning instead of failing",
    )
    solve.set_defaults(func=_cmd_solve)

    ev = sub.add_parser("evaluate", help="compare algorithms on an instance")
    ev.add_argument("instance")
    ev.set_defaults(func=_cmd_evaluate)

    gap = sub.add_parser("gap", help="integrality gaps on an instance")
    gap.add_argument("instance")
    gap.set_defaults(func=_cmd_gap)

    insp = sub.add_parser(
        "inspect", help="canonical window tree and OPT_i thresholds"
    )
    insp.add_argument("instance")
    insp.set_defaults(func=_cmd_inspect)

    bench = sub.add_parser(
        "bench",
        help="benchmark harness: run/compare/list (python -m repro.benchkit)",
    )
    bench.add_argument(
        "benchkit_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to repro.benchkit "
        "(e.g. `run --tier smoke --only E1,E14`)",
    )
    bench.set_defaults(func=_cmd_bench)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing of the pipeline against oracle properties",
    )
    fuzz.add_argument(
        "--n-instances",
        type=int,
        default=None,
        help="campaign size (default: 100, or the whole corpus with "
        "--corpus)",
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument(
        "--family",
        default="mixed",
        choices=["laminar", "general", "tight", "mixed"],
    )
    fuzz.add_argument(
        "--max-jobs", type=int, default=12, help="cap on jobs per instance"
    )
    fuzz.add_argument(
        "--exact-max-jobs",
        type=int,
        default=8,
        help="cross-check against branch-and-bound OPT up to this many jobs",
    )
    fuzz.add_argument(
        "--shrink",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="minimize failing instances before reporting",
    )
    fuzz.add_argument(
        "--cross-check-flow",
        action="store_true",
        help="cross-check the incremental flow engine against the "
        "from-scratch reference on every probe",
    )
    fuzz.add_argument(
        "--out",
        default="tests/counterexamples",
        help="directory for shrunk counterexample JSON files",
    )
    fuzz.add_argument("--report", help="write a JSON campaign report here")
    fuzz.add_argument(
        "--corpus",
        help="stream instances from this corpus directory (see `corpus "
        "build`) instead of regenerating them",
    )
    fuzz.add_argument(
        "--shard",
        metavar="I/N",
        help="run shard I of N (instance index %% N == I); the union of "
        "all N shards is exactly the unsharded campaign",
    )
    fuzz.add_argument(
        "--resume",
        metavar="CHECKPOINT",
        help="persist progress to (and resume from) this checkpoint file; "
        "a rerun after a kill reproduces the identical result",
    )
    fuzz.add_argument(
        "--merge",
        nargs="+",
        metavar="REPORT",
        help="merge per-shard campaign reports into one (exit status "
        "reflects the merged verdict); use with --report",
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    corpus = sub.add_parser(
        "corpus",
        help="persistent instance corpus for batteries and fuzz campaigns",
    )
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)

    cbuild = corpus_sub.add_parser(
        "build", help="materialize a fuzz campaign's instances into a corpus"
    )
    cbuild.add_argument("output", help="corpus directory (created/extended)")
    cbuild.add_argument("--n-instances", type=int, default=500)
    cbuild.add_argument("--seed", type=int, default=0)
    cbuild.add_argument(
        "--family",
        default="mixed",
        choices=["laminar", "general", "tight", "mixed"],
    )
    cbuild.add_argument("--max-jobs", type=int, default=12)
    cbuild.set_defaults(func=_cmd_corpus_build)

    cstat = corpus_sub.add_parser(
        "stat", help="verify a corpus end to end and print its stats"
    )
    cstat.add_argument("corpus", help="corpus directory")
    cstat.set_defaults(func=_cmd_corpus_stat)

    twin = sub.add_parser(
        "twin",
        help="rescheduling digital twin over the incremental flow engine",
    )
    twin_sub = twin.add_subparsers(dest="twin_command", required=True)

    record = twin_sub.add_parser(
        "record", help="write an event trace (random or from an instance)"
    )
    record.add_argument("output", help="output trace JSON path")
    record.add_argument(
        "--from-instance",
        help="derive the trace from a JSON instance (arrivals + final tick)",
    )
    record.add_argument("--events", type=int, default=60)
    record.add_argument("--g", type=int, default=3)
    record.add_argument("--seed", type=int, default=0)
    record.add_argument("--p-max", type=int, default=4)
    record.add_argument("--slack-max", type=int, default=8)
    record.set_defaults(func=_cmd_twin_record)

    replay = twin_sub.add_parser(
        "replay", help="replay a trace through a twin session"
    )
    replay.add_argument("trace", help="trace JSON path")
    replay.add_argument(
        "--strict",
        action="store_true",
        help="raise on the first rejected event instead of recording it",
    )
    replay.add_argument(
        "--audit",
        action="store_true",
        help="re-check the committed history with the machine simulator",
    )
    replay.add_argument(
        "--verbose", action="store_true", help="print one line per event"
    )
    replay.add_argument("--report", help="write the full diff stream here")
    replay.set_defaults(func=_cmd_twin_replay)

    tfuzz = twin_sub.add_parser(
        "fuzz", help="replay random traces with every cross-check armed"
    )
    tfuzz.add_argument("--n-traces", type=int, default=20)
    tfuzz.add_argument("--events", type=int, default=60)
    tfuzz.add_argument("--seed", type=int, default=0)
    tfuzz.add_argument("--g-max", type=int, default=4)
    tfuzz.add_argument("--report", help="write a JSON campaign report here")
    tfuzz.set_defaults(func=_cmd_twin_fuzz)

    pol = sub.add_parser(
        "policies",
        help="policy registry: list / run / leaderboard / feasibility sweep",
    )
    pol_sub = pol.add_subparsers(dest="policies_command", required=True)

    plist = pol_sub.add_parser("list", help="show all registered policies")
    plist.set_defaults(func=_cmd_policies_list)

    prun = pol_sub.add_parser(
        "run", help="run one registered policy on a JSON instance"
    )
    prun.add_argument("policy", help="registered policy name")
    prun.add_argument("instance", help="instance JSON file")
    prun.add_argument("-o", "--output", help="write the schedule JSON here")
    prun.set_defaults(func=_cmd_policies_run)

    plead = pol_sub.add_parser(
        "leaderboard",
        help="rank all policies by empirical ratio vs the exact optimum",
    )
    plead.add_argument(
        "--smoke",
        action="store_true",
        help="small suite (the committed-baseline configuration)",
    )
    plead.add_argument("--seed", type=int, default=2022)
    plead.add_argument(
        "--only", help="comma-separated policy names (default: all)"
    )
    plead.set_defaults(func=_cmd_policies_leaderboard)

    psweep = pol_sub.add_parser(
        "sweep",
        help="feasibility sweep: every policy on a corpus shard must "
        "solve validly or fail with a typed error",
    )
    psweep.add_argument("--corpus", required=True, help="corpus directory")
    psweep.add_argument("--shard", help="shard selector i/n")
    psweep.add_argument("--limit", type=int, help="cap instances swept")
    psweep.add_argument(
        "--only", help="comma-separated policy names (default: all)"
    )
    psweep.add_argument("--report", help="write a JSON report here")
    psweep.set_defaults(func=_cmd_policies_sweep)

    srv = sub.add_parser(
        "serve",
        help="HTTP/JSON scheduling service (solve/verify/fuzz/healthz/metrics)",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument(
        "--port",
        type=int,
        default=8080,
        help="listen port; 0 binds an ephemeral port (printed on boot)",
    )
    srv.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process worker pool width; 1 (default) runs solves "
        "in-process, 0 sizes the pool to the machine's cores",
    )
    srv.add_argument(
        "--max-body",
        type=int,
        default=8 * 1024 * 1024,
        help="request-body cap in bytes (413 past it)",
    )
    srv.add_argument(
        "--split-jobs",
        type=int,
        default=64,
        help="instances with at least this many jobs are split into "
        "independent sub-instances and fanned out across the pool",
    )
    srv.add_argument(
        "--verbose", action="store_true", help="log every request to stderr"
    )
    srv.set_defaults(func=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    code = args.func(args)
    if args.stats:
        from repro.flow.incremental import flow_stats
        from repro.solver import solver_stats

        print(_render_stats(solver_stats(), flow_stats()))
    return code


def _render_stats(solver: dict, flow: dict) -> str:
    """The ``--stats`` block: solver service, then flow engine counters."""
    from repro import obs

    rows = [
        ("lp solves", solver["solves"]),
        ("cache hits", solver["cache_hits"]),
        ("cache misses", solver["cache_misses"]),
        ("failures", solver["failures"]),
        ("rows solved", solver["rows"]),
        ("cols solved", solver["cols"]),
        ("wall time [s]", f"{solver['wall_time']:.4f}"),
        ("highs solves", solver["backend_solves"]),
        ("highs time [s]", f"{solver['backend_time']:.4f}"),
    ]
    flow_rows = [
        ("networks built", flow["networks_built"]),
        ("probes", flow["probes"]),
        ("rebuilds avoided", flow["rebuilds_avoided"]),
        ("augmenting paths", flow["augmenting_paths"]),
        ("flow units repaired", flow["units_repaired"]),
        ("flow units augmented", flow["units_augmented"]),
    ]
    return (
        obs.render("solver stats", rows)
        + "\n"
        + obs.render("flow engine stats", flow_rows)
    )


if __name__ == "__main__":
    raise SystemExit(main())

"""The repository benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch-dense --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the traced
pass and prints the per-layer metrics.  The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``.  See README.md in
this directory for the workloads and metrics.

The work runs in child processes of this one, so every run measures a
fresh process: one child sets up and then measures, and for ``setup_s``
further children only set up, some before it and as many after it, so the
set-ups are spread over the run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import OUT, PROBE_REF_S, ROOT, emit, percentile, start_setup, use_source_tree  # noqa: E402

WORKLOADS = ("batch-dense", "long-horizon", "service-mix", "service-calls", "verify-campaign")

#: Metric names and units, as declared in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


#: Setup-only children run before the measuring child, and again after it.
#: ``setup_s`` is the median of their set-up times and the measuring
#: child's own.
SETUPS_EACH_SIDE = 1
#: Metrics only the open-loop ``service-mix`` has; it is not in
#: BENCHMARK.json, so they go to standard error only.
SERVICE_MIX_ONLY = {"latency_p99_ms": "ms", "sustained_rps": "1/s"}
#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 170.0


def child_main(args: argparse.Namespace) -> int:
    """Run inside a fresh process: set up, then measure (or stop)."""
    start_setup()
    use_source_tree()
    if args.workload in ("batch-dense", "long-horizon"):
        import closed_loop as workload
    elif args.workload == "service-mix":
        import service_mix as workload
    elif args.workload == "service-calls":
        import service_calls as workload
    else:
        import campaign as workload
    if args.role == "setup":
        workload.setup_only(args.workload, args.seed, args.seconds)
        return 0
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        result = workload.traced(args.workload, args.seed, args.seconds, tracer)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        result = workload.measure(args.workload, args.seed, args.seconds)
    emit("result", **result)
    return 0


def run_child(args: argparse.Namespace, role: str) -> tuple[float, dict | None]:
    """Spawn one child; returns (seconds until it was set up, its result).

    The set-up time is wall time from the spawn to the child's ready
    message, scaled to the reference host speed by the probes the child
    ran as it started and when it was ready (see ``common.probe``).
    """
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--role", role,
    ]
    t0 = time.perf_counter()
    # Its own session, so a timeout also kills the server and pool workers
    # a service-mix child started.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    ready = None
    result = None
    try:
        for line in proc.stdout:
            try:
                msg = json.loads(line)
            except json.JSONDecodeError:
                sys.stderr.write(line)
                continue
            if msg.get("event") == "ready" and ready is None:
                ready = (time.perf_counter() - t0) * PROBE_REF_S / msg["probe"]
            elif msg.get("event") == "result":
                result = msg
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0 or ready is None:
        raise SystemExit(f"perfbench: {role} child failed (exit {proc.returncode})")
    return ready, result


def summarize(args: argparse.Namespace, setups: list[float], result: dict) -> dict:
    """The result line: the last line of standard output."""
    if args.trace:
        units = _units("per_layer")
        values = {name: result["layers"].get(name, 0.0) for name in units}
    else:
        lat = result["latencies_ms"]
        values = {
            "setup_s": median(setups),
            "throughput_ips": result["throughput_ips"],
            "latency_p50_ms": percentile(lat, 0.50),
            "latency_p90_ms": percentile(lat, 0.90),
            "peak_rss_mb": result["peak_rss_mb"],
            "lp_ratio_mean": result["lp_ratio_mean"],
        }
        units = _units("end_to_end")
    for problem in result.get("problems", []):
        print(f"problem: {problem}", file=sys.stderr)
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    return {
        "correct": failed == 0 and result.get("valid", True),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "setup", "measure"), default="main")
    args = parser.parse_args(argv)
    if args.role != "main":
        return child_main(args)
    use_source_tree()  # fails fast where the checkout has no program
    spread = 0 if args.trace else SETUPS_EACH_SIDE
    setups = [run_child(args, "setup")[0] for _ in range(spread)]
    ready, result = run_child(args, "measure")
    setups.append(ready)
    setups += [run_child(args, "setup")[0] for _ in range(spread)]
    if result is None:
        print("perfbench: measure child printed no result", file=sys.stderr)
        return 1
    summary = summarize(args, setups, result)
    for name, metric in summary["metrics"].items():
        print(f"{name:40s} {metric['value']:14.6f} {metric['unit']}", file=sys.stderr)
    for name, unit in SERVICE_MIX_ONLY.items():
        if name in result:
            print(f"{name:40s} {result[name]:14.6f} {unit}", file=sys.stderr)
    if "samples" in result:
        print(f"{'latency samples':40s} {result['samples']:14d}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

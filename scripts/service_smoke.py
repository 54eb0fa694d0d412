"""End-to-end smoke of the scheduling service, as CI runs it.

Boots ``active-time serve`` as a real subprocess on an ephemeral port,
drives every endpoint through :class:`repro.service.client.ServiceClient`
and asserts the served ``/solve`` answers (the default ``nested``,
``algorithm=greedy`` and ``policy=greedy``) round-trip *bit-identically*
with ``active-time solve [--algorithm greedy]`` on the same instance, that a ``d = 10⁹``
body and a body at exactly the ``Σ p_j`` cap are answered, that a
``Σ p_j`` over the cap is refused with a JSON 413, that a ``backend``
field (the LP solver is not selectable) is refused with a JSON 400, that
``/metrics`` keeps the solve-cache counters, and that after a burst of
concurrent ``/solve`` requests the ``/metrics`` solver/flow counters
equal the sum of the ``solver``/``flow`` blocks in the responses
received.  That last check holds at any pool width: pooled, ``/metrics``
folds the blocks the workers return; in process (``--workers 1``) it
reads the process's own counters, and each response counts its own
request only.  Exits non-zero on any failure; the boot itself is
bounded by ``--boot-timeout`` (CI uses the default 60s and runs both
widths).

Run from the repository root::

    python scripts/service_smoke.py [--workers 1] [--instance data/section5_gap_g4.json]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.instances.generators import random_laminar  # noqa: E402
from repro.instances.io import instance_to_dict  # noqa: E402
from repro.service.client import ClientError, ServiceClient  # noqa: E402
from repro.service.server import MAX_SOLVE_VOLUME  # noqa: E402

#: Distinct instances sent to ``/solve`` at once.
CONCURRENT_SOLVES = 8


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def boot_server(args: argparse.Namespace) -> tuple[subprocess.Popen, str]:
    """Start ``active-time serve --port 0`` and wait for its banner."""
    cmd = [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--port",
        "0",
        "--workers",
        str(args.workers),
    ]
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    banner: list[str] = []

    def read_banner() -> None:
        line = proc.stdout.readline()
        banner.append(line)

    reader = threading.Thread(target=read_banner, daemon=True)
    reader.start()
    reader.join(args.boot_timeout)
    if not banner or not banner[0]:
        proc.kill()
        raise SystemExit(
            f"FAIL: server printed no banner within {args.boot_timeout}s"
        )
    match = re.search(r"http://[\d.]+:(\d+)", banner[0])
    if not match:
        proc.kill()
        raise SystemExit(f"FAIL: unparsable boot banner: {banner[0]!r}")
    return proc, f"http://127.0.0.1:{match.group(1)}"


def cli_solve_schedule(instance_path: Path, algorithm: str = "nested") -> dict:
    """The CLI's answer for the same instance, as a schedule document."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "schedule.json"
        subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "solve",
                str(instance_path),
                "--algorithm",
                algorithm,
                "--output",
                str(out),
            ],
            cwd=ROOT,
            env=_env(),
            check=True,
            capture_output=True,
        )
        return json.loads(out.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--instance",
        default="data/section5_gap_g4.json",
        help="laminar instance JSON the solve round-trip uses",
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--boot-timeout", type=float, default=60.0)
    args = parser.parse_args()

    instance_path = ROOT / args.instance
    instance_doc = json.loads(instance_path.read_text())

    t0 = time.monotonic()
    proc, base_url = boot_server(args)
    failures: list[str] = []
    try:
        client = ServiceClient(base_url, timeout=120.0)
        health = client.wait_healthy(
            timeout=max(1.0, args.boot_timeout - (time.monotonic() - t0))
        )
        print(f"healthz: {health}")
        if not health.get("ok"):
            failures.append(f"healthz not ok: {health}")

        served = client.solve(instance_doc)
        print(
            f"solve: active_time={served['active_time']} "
            f"parts={served['parts']} degraded={served['degraded']}"
        )
        expected = cli_solve_schedule(instance_path)
        if served["schedule"] != expected:
            failures.append(
                "served /solve schedule differs from `active-time solve` "
                f"on {args.instance}: served={served['schedule']} "
                f"cli={expected}"
            )
        else:
            print("solve round-trip: bit-identical with the CLI answer")

        # Both request kinds run the registry's policy by name, as the
        # CLI does: the greedy answers equal `solve --algorithm greedy`.
        expected_greedy = cli_solve_schedule(instance_path, "greedy")
        served_greedy = []
        for option in ("algorithm", "policy"):
            answer = client.solve(instance_doc, **{option: "greedy"})
            served_greedy.append(answer)
            if answer["schedule"] != expected_greedy:
                failures.append(
                    f"served /solve {option}=greedy schedule differs from "
                    f"`active-time solve --algorithm greedy` on {args.instance}"
                )
            else:
                print(f"solve {option}=greedy: bit-identical with the CLI answer")

        # Input size alone must not exhaust the server: a T = 10⁹ body
        # is solved on segments, and a 10⁹-unit body is refused typed.
        huge_horizon = {
            "version": 1,
            "g": 2,
            "jobs": [
                {"id": 0, "r": 0, "d": 10**9, "p": 5},
                {"id": 1, "r": 0, "d": 10**9, "p": 5},
            ],
        }
        try:
            served_huge = client.solve(huge_horizon)
            print(f"solve d=1e9: active_time={served_huge['active_time']}")
            if served_huge["active_time"] != 5:
                failures.append(f"d=1e9 solve answered {served_huge}")
        except ClientError as exc:
            served_huge = None
            failures.append(f"d=1e9 solve failed: {exc.status} {exc.body}")
        # The cap exists for the wire format, which lists every unit: a
        # body right at it is answered in full.  Two nested jobs fill
        # every slot of [0, cap) at g = 1.
        half = MAX_SOLVE_VOLUME // 2
        at_cap = {
            "version": 1,
            "g": 1,
            "jobs": [
                {"id": 0, "r": 0, "d": half, "p": half},
                {"id": 1, "r": 0, "d": MAX_SOLVE_VOLUME, "p": MAX_SOLVE_VOLUME - half},
            ],
        }
        try:
            served_cap = client.solve(at_cap)
            print(f"solve sum(p)={MAX_SOLVE_VOLUME}: active_time={served_cap['active_time']}")
            if served_cap["active_time"] != MAX_SOLVE_VOLUME:
                failures.append(
                    f"sum(p)={MAX_SOLVE_VOLUME} solve answered "
                    f"active_time={served_cap['active_time']}"
                )
        except ClientError as exc:
            served_cap = None
            failures.append(
                f"sum(p)={MAX_SOLVE_VOLUME} solve failed: {exc.status} {str(exc.body)[:500]}"
            )
        huge_volume = {
            "version": 1,
            "g": 1,
            "jobs": [{"id": 0, "r": 0, "d": 10**9, "p": 10**9 - 1}],
        }
        try:
            client.solve(huge_volume)
            failures.append("huge-volume /solve was not refused")
        except ClientError as exc:
            if exc.status == 413 and isinstance(exc.body, dict) and "error" in exc.body:
                print(f"solve p=1e9-1: 413 {exc.body['error']!r}")
            else:
                failures.append(
                    f"huge-volume /solve answered {exc.status} {exc.body!r}, "
                    "expected 413 with a JSON error"
                )

        # HiGHS is the only LP solver: naming one is a typed 400, sent
        # before any LP is built.
        try:
            client.solve(instance_doc, backend="simplex")
            failures.append('/solve with "backend": "simplex" was not refused')
        except ClientError as exc:
            if (
                exc.status == 400
                and isinstance(exc.body, dict)
                and "backend" in exc.body.get("error", "")
            ):
                print(f"solve backend=simplex: 400 {exc.body['error']!r}")
            else:
                failures.append(
                    f'/solve with "backend": "simplex" answered {exc.status} '
                    f"{exc.body!r}, expected 400 naming the field"
                )

        verify = client.verify(instance_doc)
        print(f"verify: status={verify['status']} ok={verify['ok']}")
        if not verify.get("ok"):
            failures.append(f"verify reported violations: {verify}")

        fuzz = client.fuzz(n_instances=20, seed=2022, max_jobs=8)
        print(
            f"fuzz: checked={fuzz['checked']} failures={fuzz['n_failures']} "
            f"shards={fuzz['shards']}"
        )
        if not fuzz.get("ok"):
            failures.append(f"served fuzz campaign failed: {fuzz}")

        with ThreadPoolExecutor(CONCURRENT_SOLVES) as pool:
            burst = list(
                pool.map(
                    lambda seed: client.solve(
                        instance_to_dict(random_laminar(300, 3, seed=seed))
                    ),
                    range(CONCURRENT_SOLVES),
                )
            )
        print(f"solve x{len(burst)} concurrent: answered")

        metrics = client.metrics()
        # Every solve this server ran was for one of these responses, so
        # its counters are exactly the sum of the blocks they carried.
        received = (
            served, *served_greedy, served_huge, served_cap, verify, fuzz, *burst
        )
        for family, counter in (("solver", "solves"), ("flow", "probes")):
            name = f'repro_{family}_stats{{counter="{counter}"}}'
            served_total = sum(
                r[family][counter] for r in received if r is not None
            )
            scraped = [
                int(line.rpartition(" ")[2])
                for line in metrics.splitlines()
                if line.startswith(name + " ")
            ]
            if scraped != [served_total]:
                failures.append(
                    f"/metrics {name} reads {scraped}, but the responses' "
                    f"{family} blocks sum to {served_total}"
                )
            else:
                print(f"metrics: {name} = {served_total} (sum of blocks)")
        for needle in (
            'repro_requests_total{endpoint="solve"}',
            "repro_request_latency_seconds",
            'repro_solver_stats{counter="solves"}',
            'repro_solver_stats{counter="cache_hits"}',
            "repro_flow_stats",
            "repro_queue_depth",
        ):
            if needle not in metrics:
                failures.append(f"/metrics is missing {needle!r}")
        print(f"metrics: {len(metrics.splitlines())} lines, counters present")
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("service smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

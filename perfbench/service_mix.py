"""``service-mix``: open-loop traffic against ``active-time serve``.

The server runs as a subprocess with a pool as wide as the machine
(``--workers`` = nproc, at most 4) and is booted with ``--port 0`` and stopped
with SIGINT.  One generator process keeps at most nproc connections open
and sends ``POST /solve`` at Poisson arrival times.

Traffic: about 70% small requests (5–40 jobs) and 30% mid-size ones
(100–300 jobs); a third of the mid-size ones are unions of independent
parts, which the server splits (it splits at >= 64 jobs) and fans out.
About 30% of requests repeat an earlier body, so the solve cache is read.

Each request is timed from when it was due, so a stall also delays the
requests behind it.  The run is invalid when the generator itself sends
late.  The latencies come from the nominal phase of at least
``MIN_REQUESTS`` requests.  After it, the generator climbs a fixed geometric
ladder of offered rates (``NOMINAL_RPS * STEP**k`` up to about 4x the
nominal rate) and stops at the first rung whose p99 exceeds ``P99_LIMIT_MS``
or whose backlog grows: ``sustained_rps`` is the completion rate on the rung
below it.  ``throughput_ips`` is the nominal phase's requests per CPU-second of
the server and its pool workers, as the closed loops count operations per
CPU-second (see ``closed_loop.measure``).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from time import perf_counter

from checker import check_schedule
from common import (
    ROOT,
    child_pids,
    cpu_seconds_of,
    peak_rss_mb_of,
    percentile,
    pid_alive,
    ready,
    source_env,
)
from planted import independent_union, planted_instance

#: Offered rate of the nominal phase (requests/s): a bit over half of what
#: two cores sustained on this mix when the benchmark was defined (~45 rps).
NOMINAL_RPS = 25.0
#: The nominal phase sends at least this many requests, so ten lie beyond p99.
MIN_REQUESTS = 1000
#: Rung ``k`` of the ladder offers ``NOMINAL_RPS * STEP**k`` for
#: RUNG_SECONDS; rung 0 is the nominal phase.  The top rung offers about 4x
#: nominal, 2x the capacity of two cores when the benchmark was defined.
STEP = 1.12
RUNGS = 12
RUNG_SECONDS = 2.5
#: A rung passes when its p99 (from due time) stays under this limit.
P99_LIMIT_MS = 1000.0
BACKLOG_SLACK_MS = 25.0
#: Generator lateness above this (p99, ms) makes the run invalid.
LATE_LIMIT_MS = 20.0
REPEAT_FRACTION = 0.3
#: Served answers compared bit for bit with in-process ``solve_nested``.
EXACT_SAMPLE = 24
#: New requests the traced run sends one at a time after the nominal phase.
PROBE_REQUESTS = 40
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0


def pool_width() -> int:
    return max(1, min(os.cpu_count() or 1, 4))


# -- inputs ------------------------------------------------------------------


def _request_doc(shape: random.Random, seed: int) -> dict:
    """One request instance: its size, g and window tree come from ``shape``,
    its jobs from ``seed``."""
    g = shape.choice((2, 4, 8))
    if shape.random() < 0.7:
        sizes, union = [shape.randint(5, 40)], False
    else:
        n = shape.randint(100, 300)
        union = shape.random() < 1 / 3
        sizes = [n]
        if union:
            sizes = []
            while sum(sizes) < n - 20:
                sizes.append(shape.randint(20, 80))
    parts = [
        planted_instance(
            seed * 8 + i,
            n=m,
            horizon=3 * m,
            g=g,
            windows=max(2, m // 4),
            p_max=3,
            shape_seed=shape.getrandbits(32),
        )
        for i, m in enumerate(sizes)
    ]
    if not union:
        return parts[0]
    return independent_union(parts, gap=1 + shape.randrange(3), name=f"union-{seed}")


class Traffic:
    """Request bodies and arrival times for one phase.

    The arrival times and the mix (which requests are small, mid-size,
    unions or repeats, and their window trees) are one fixed sample, the
    same in every run; the seed draws the jobs.  With arrivals drawn from
    the seed too, the latency percentiles varied twice as much between
    seeds, from the bursts alone.  A repeat picks a body of the nominal
    phase or an earlier one of its own phase.
    """

    def __init__(self, mix: "Mix", phase: str, count: int, rate: float) -> None:
        shape = random.Random(f"shape/{phase}")
        rng = random.Random(f"{mix.seed}/{phase}")
        self.rate = rate
        # A Poisson process conditioned on ``count`` arrivals in the phase:
        # uniform arrival times, so every run offers exactly ``rate``.
        self.offsets = sorted(shape.uniform(0, count / rate) for _ in range(count))
        self.order: list[int] = []
        own: list[int] = []
        for _ in range(count):
            pool = mix.shared + len(own)
            if pool and shape.random() < REPEAT_FRACTION:
                k = shape.randrange(pool)
                self.order.append(k if k < mix.shared else own[k - mix.shared])
            else:
                own.append(mix.add(_request_doc(shape, rng.getrandbits(40))))
                self.order.append(own[-1])


class Mix:
    """Every request document of a run and its encoded body; ``count`` is
    the length of the nominal phase."""

    def __init__(self, seed: int, count: int) -> None:
        self.seed = seed
        self.docs: list[dict] = []
        self.bodies: list[bytes] = []
        self.shared = 0
        self.nominal = Traffic(self, "nominal", count, NOMINAL_RPS)
        self.shared = len(self.docs)

    def add(self, doc: dict) -> int:
        self.docs.append(doc)
        self.bodies.append(json.dumps({"instance": doc}).encode())
        return len(self.docs) - 1

    def rung(self, k: int) -> Traffic:
        rate = NOMINAL_RPS * STEP**k
        return Traffic(self, f"rung{k}", int(rate * RUNG_SECONDS), rate)


def served_parts(inst) -> list:
    """The parts the server solves ``inst`` in (it splits at >= 64 jobs)."""
    from repro.instances.transforms import split_independent
    from repro.service.server import DEFAULT_SPLIT_JOBS

    return split_independent(inst) if inst.n >= DEFAULT_SPLIT_JOBS else [inst]


# -- server lifecycle --------------------------------------------------------


class Server:
    """``active-time serve --port 0`` as a subprocess."""

    def __init__(self, workers: int) -> None:
        cmd = [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--workers", str(workers)]
        # SIGINT stops the server, so it must not inherit SIGINT ignored (as
        # every job started in the background by a non-interactive shell does).
        self.proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=source_env(),
            stdout=subprocess.PIPE,
            text=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        banner: list[str] = []
        reader = threading.Thread(target=lambda: banner.append(self.proc.stdout.readline()))
        reader.start()
        reader.join(BOOT_TIMEOUT_S)
        match = re.search(r"http://[\d.]+:(\d+)", banner[0]) if banner else None
        if match is None:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"server did not print its address: {banner!r}")
        self.port = int(match.group(1))

    def connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def scrape(self) -> dict[str, float]:
        """``/metrics`` as ``{series: value}``."""
        conn = self.connection()
        try:
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode()
        finally:
            conn.close()
        series = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                series[name] = float(value)
        return series

    def workers(self) -> list[int]:
        return child_pids(self.proc.pid)

    def cpu_seconds(self) -> float:
        """CPU time the server and its pool workers have used so far."""
        return sum(cpu_seconds_of(pid) for pid in [self.proc.pid, *self.workers()])

    def peak_rss_mb(self) -> float:
        """Summed peak RSS of the server and its pool workers."""
        return sum(peak_rss_mb_of(pid) for pid in [self.proc.pid, *self.workers()])

    def stop(self) -> list[int]:
        """SIGINT, wait, and return the pool workers still alive after it."""
        workers = self.workers()
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while time.monotonic() < deadline and any(pid_alive(p) for p in workers):
            time.sleep(0.05)
        leaked = [pid for pid in workers if pid_alive(pid)]
        for pid in leaked:
            os.kill(pid, signal.SIGKILL)
        while any(pid_alive(p) for p in leaked):
            time.sleep(0.05)
        return leaked


def _post(server: Server, body: bytes) -> tuple[int, bytes]:
    """One request on its own connection, as the program's own client does.

    Keep-alive connections are not used: on them every response stalls for
    the client's delayed ACK (about 40 ms), because the server writes the
    headers and the body in separate small sends.
    """
    conn = server.connection()
    try:
        conn.request("POST", "/solve", body, {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def warm_up(server: Server, bodies: list[bytes]) -> None:
    """A few requests on every connection, so every pool worker has solved."""
    def client(offset: int) -> None:
        for body in bodies[offset :: pool_width()][:4]:
            _post(server, body)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(pool_width())]
    for th in threads:
        th.start()
    for th in threads:
        th.join()


# -- open-loop load generator ---------------------------------------------------


class Sample:
    __slots__ = ("index", "due", "taken", "sent", "done", "status", "body")

    def __init__(self, index, due, taken, sent, done, status, body) -> None:
        self.index, self.due, self.taken, self.sent = index, due, taken, sent
        self.done, self.status, self.body = done, status, body


def drive(server: Server, traffic: Traffic, bodies: list[bytes]) -> tuple[float, list[Sample]]:
    """Send one phase; returns its start time and one sample per request.

    A request whose due time passes while every connection is busy waits
    for the next free one.
    """
    lock = threading.Lock()
    cursor = [0]
    samples: list[Sample] = []
    start = perf_counter() + 0.05

    def client() -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(traffic.offsets):
                return
            taken = perf_counter()
            due = start + traffic.offsets[i]
            if due > taken:
                time.sleep(due - taken)
            sent = perf_counter()
            try:
                status, body = _post(server, bodies[traffic.order[i]])
            except (OSError, http.client.HTTPException):
                status, body = 0, b""
            samples.append(Sample(i, due, taken, sent, perf_counter(), status, body))

    threads = [threading.Thread(target=client) for _ in range(pool_width())]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    samples.sort(key=lambda s: s.index)
    return start, samples


def lateness_ms(samples: list[Sample]) -> list[float]:
    """How late the generator sent requests it was idle for (not queueing)."""
    return [(s.sent - s.due) * 1e3 for s in samples if s.taken <= s.due]


def phase_passes(samples: list[Sample]) -> bool:
    """p99 under the limit, every request answered, and no growing backlog:
    the median latency of the last fifth of the phase stays within twice
    that of the first fifth plus BACKLOG_SLACK_MS."""
    lat = [(s.done - s.due) * 1e3 for s in samples]
    if any(s.status != 200 for s in samples) or percentile(lat, 0.99) > P99_LIMIT_MS:
        return False
    fifth = max(1, len(lat) // 5)
    return percentile(lat[-fifth:], 0.5) <= 2 * percentile(lat[:fifth], 0.5) + BACKLOG_SLACK_MS


def completion_rate(samples: list[Sample], start: float) -> float:
    """Requests answered per second from the phase start to the last answer."""
    return len(samples) / (max(s.done for s in samples) - start)


# -- correctness -----------------------------------------------------------------


def check_responses(samples: list[Sample], traffic: Traffic, docs: list[dict]) -> list[str]:
    problems = []
    missing = len(traffic.offsets) - len(samples)
    if missing:
        problems.append(f"{missing} request(s) of the phase got no answer")
    for s in samples:
        if s.status != 200:
            problems.append(f"request {s.index}: HTTP {s.status}")
            continue
        resp = json.loads(s.body)
        doc = docs[traffic.order[s.index]]
        bad = check_schedule(
            doc, resp["schedule"]["assignment"], resp["active_time"], resp["lp_value"]
        )
        if bad:
            problems.append(f"request {s.index}: {bad[0]}")
    return problems


def exact_sample(samples: list[Sample], traffic: Traffic, docs: list[dict]) -> list[str]:
    """Served answers must equal in-process ``solve_nested`` bit for bit."""
    from repro.core.algorithm import solve_nested
    from repro.instances.io import instance_from_dict, schedule_to_dict

    problems = []
    seen: set[int] = set()
    picked = [s for s in samples if s.status == 200]
    for s in picked[:: max(1, len(picked) // EXACT_SAMPLE)]:
        key = traffic.order[s.index]
        if key in seen:
            continue
        seen.add(key)
        assignment: dict = {}
        active = 0
        for part in served_parts(instance_from_dict(docs[key])):
            result = solve_nested(part)
            assignment.update(schedule_to_dict(result.schedule)["assignment"])
            active += result.active_time
        resp = json.loads(s.body)
        if resp["schedule"]["assignment"] != assignment or resp["active_time"] != active:
            problems.append(f"request {s.index}: served schedule differs from solve_nested")
    return problems


# -- workload entry points ---------------------------------------------------------


def boot(bodies: list[bytes]) -> Server:
    """A warmed-up server; stopped again if the warm-up fails."""
    server = Server(pool_width())
    try:
        warm_up(server, bodies)
    except BaseException:
        server.stop()
        raise
    return server


def setup(seed: int, seconds: float) -> tuple[Server, Mix]:
    mix = Mix(seed, max(MIN_REQUESTS, int(NOMINAL_RPS * seconds)))
    return boot(mix.bodies), mix


def setup_only(workload: str, seed: int, seconds: float) -> None:
    """Set up, report ready, then stop the server (not part of set-up)."""
    server, _ = setup(seed, seconds)
    ready()
    server.stop()


def _lp_ratios(samples: list[Sample]) -> list[float]:
    ratios = []
    for s in samples:
        if s.status == 200:
            resp = json.loads(s.body)
            if resp["lp_value"] > 0:
                ratios.append(resp["active_time"] / resp["lp_value"])
    return ratios


def _late_p99(runs: list[list[Sample]]) -> float:
    late = [x for samples in runs for x in lateness_ms(samples)]
    return percentile(late, 0.99) if late else 0.0


def climb(server: Server, mix: Mix) -> list[tuple[Traffic, float, list[Sample]]]:
    """Send rungs 1, 2, ... of the ladder until one fails (or the top rung
    passes); returns the rungs sent, in order."""
    sent = []
    for k in range(1, RUNGS + 1):
        traffic = mix.rung(k)
        start, samples = drive(server, traffic, mix.bodies)
        sent.append((traffic, start, samples))
        if not phase_passes(samples):
            break
    return sent


def measure(workload: str, seed: int, seconds: float) -> dict:
    server, mix = setup(seed, seconds)
    ready()
    try:
        cpu = server.cpu_seconds()
        start, nominal = drive(server, mix.nominal, mix.bodies)
        cpu = server.cpu_seconds() - cpu
        phases = [(mix.nominal, start, nominal)]
        if phase_passes(nominal):
            phases += climb(server, mix)
        peak = server.peak_rss_mb()
    finally:
        leaked = server.stop()
    problems = []
    for traffic, _, samples in phases:
        problems += check_responses(samples, traffic, mix.docs)
    problems += exact_sample(nominal, mix.nominal, mix.docs)
    problems += [f"pool worker {pid} alive after the server stopped" for pid in leaked]
    failed = len(problems)
    # Every phase but the last passed, unless the top rung passed too.
    passing = [(t, t0, s) for t, t0, s in phases if phase_passes(s)]
    sustained = completion_rate(passing[-1][2], passing[-1][1]) if passing else 0.0
    late_p99 = _late_p99([samples for _, _, samples in phases])
    if late_p99 > LATE_LIMIT_MS:
        problems.append(f"generator fell behind: late p99 {late_p99:.1f} ms")
    lat = [(s.done - s.due) * 1e3 for s in nominal]
    ratios = _lp_ratios(nominal)
    for traffic, rung_start, samples in phases:
        print(
            f"rung {traffic.rate:7.2f} rps: {completion_rate(samples, rung_start):7.2f} done/s, "
            f"p99 {percentile([(x.done - x.due) * 1e3 for x in samples], 0.99):8.1f} ms, "
            f"{'pass' if phase_passes(samples) else 'fail'}",
            file=sys.stderr,
        )
    return {
        "attempted": sum(len(traffic.offsets) for traffic, _, _ in phases),
        "failed": failed,
        "valid": late_p99 <= LATE_LIMIT_MS,
        "problems": problems[:5],
        "samples": len(lat),
        "throughput_ips": len(nominal) / cpu,
        "latencies_ms": lat,
        "latency_p99_ms": percentile(lat, 0.99),
        "sustained_rps": sustained,
        "lp_ratio_mean": sum(ratios) / len(ratios),
        "peak_rss_mb": peak,
    }


def _scrape_delta(after: dict, before: dict, series: str) -> float:
    return after.get(series, 0.0) - before.get(series, 0.0)


REPLAYED = ("instances.io.parse", "service.worker", "instances.io.encode")


def _replay(tracer, mix: Mix, keys: list[int]) -> None:
    """Re-run the server's per-request work in-process on ``keys``: parse
    the body, solve the parts through the pool worker entry point, encode
    the response."""
    from repro.instances.io import instance_from_dict, instance_to_dict
    from repro.service.workers import solve_part

    options = {"algorithm": "nested", "backend": None, "deadline_ms": None, "node_budget": None}
    for key in keys:
        tracer.op = key
        with tracer.span("instances.io.parse"):
            inst = instance_from_dict(json.loads(mix.bodies[key])["instance"])
        payloads = [(instance_to_dict(p), options) for p in served_parts(inst)]
        with tracer.span("service.worker"):
            results = [solve_part(payload) for payload in payloads]
        with tracer.span("instances.io.encode"):
            json.dumps({"schedule": [r["schedule"] for r in results]}).encode()


def _server_ms(after: dict, before: dict) -> tuple[float, float]:
    """(requests, mean server time per request in ms) of ``/solve``."""
    solve = 'endpoint="solve"'
    requests = _scrape_delta(after, before, f"repro_requests_total{{{solve}}}")
    seconds = _scrape_delta(after, before, f"repro_request_latency_seconds_sum{{{solve}}}")
    return requests, seconds * 1e3 / requests


def traced(workload: str, seed: int, seconds: float, tracer) -> dict:
    """The nominal phase, then a sequential probe of new requests.

    The nominal phase is driven exactly as in the untraced run; its spans
    (generator queue, HTTP request) are recorded afterwards from the
    timestamps the driver keeps anyway, so tracing adds nothing to it and
    ``trace.overhead_frac`` is 0 by construction.  ``/metrics`` is scraped
    around it for the server's mean time, cache and split counts.

    The probe then sends ``PROBE_REQUESTS`` bodies not sent before, one at
    a time, so every part misses the solve cache; the same bodies are then
    replayed in-process through the pool worker's entry point.  Server
    time and worker time are thus measured on the same requests, both
    cold, and ``service.overhead_ms`` is their difference: parsing,
    splitting, the pool hand-off, merging and encoding.
    """
    server, mix = setup(seed, seconds)
    traffic = mix.nominal
    shape = random.Random("shape/probe")
    probe = [mix.add(_request_doc(shape, seed * 8 + 7 + 8 * i)) for i in range(PROBE_REQUESTS)]
    ready()
    try:
        before = server.scrape()
        _, spanned = drive(server, traffic, mix.bodies)
        after = server.scrape()
        answers = [_post(server, mix.bodies[key]) for key in probe]
        probed = server.scrape()
    finally:
        leaked = server.stop()
    for s in spanned:
        tracer.op = s.index
        tracer.record("generator.queue", s.due, s.sent)
        tracer.record("http.request", s.sent, s.done)
    problems = check_responses(spanned, traffic, mix.docs)
    for key, (status, body) in zip(probe, answers):
        if status != 200:
            problems.append(f"probe {key}: HTTP {status}")
            continue
        resp = json.loads(body)
        bad = check_schedule(
            mix.docs[key], resp["schedule"]["assignment"], resp["active_time"], resp["lp_value"]
        )
        problems += [f"probe {key}: {p}" for p in bad]
    problems += [f"pool worker {pid} alive after the server stopped" for pid in leaked]
    _replay(tracer, mix, probe)
    self_ms = {name: t * 1e3 for name, t in tracer.self_times().items()}
    replay_ms = {name: self_ms[name] / len(probe) for name in REPLAYED}

    requests, server_ms = _server_ms(after, before)
    _, probe_server_ms = _server_ms(probed, after)
    hits = _scrape_delta(after, before, 'repro_solver_stats{counter="cache_hits"}')
    solves = _scrape_delta(after, before, 'repro_solver_stats{counter="solves"}')
    parts = _scrape_delta(after, before, 'repro_fanout_parts_total{endpoint="solve"}')
    http_ms = self_ms["http.request"] / len(spanned)
    layers = {
        "solver.cache_hits": hits,
        "solver.cache_hit_ratio": hits / solves if solves else 0.0,
        "instances.io.parse_ms": replay_ms["instances.io.parse"],
        "instances.io.encode_ms": replay_ms["instances.io.encode"],
        "service.solve_ms": server_ms,
        "service.worker_ms": replay_ms["service.worker"],
        "service.overhead_ms": probe_server_ms - replay_ms["service.worker"],
        "http.overhead_ms": http_ms - server_ms,
        "service.queue_ms": self_ms["generator.queue"] / len(spanned),
        "instances.transforms.split_parts": parts / requests,
        "driver.late_p99_ms": _late_p99([spanned]),
        "trace.overhead_frac": 0.0,
    }
    return {
        "attempted": len(traffic.offsets) + len(probe),
        "failed": len(problems),
        "problems": problems[:5],
        "layers": layers,
    }

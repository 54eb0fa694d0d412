"""Helpers shared by the workloads: statistics, memory, the child protocol."""

from __future__ import annotations

import json
import math
import os
import resource
import sys
from pathlib import Path
from time import process_time

#: Root of the checkout the benchmark runs in (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Where traced runs write their span files (ignored by git).
OUT = ROOT / ".perfbench_out"


#: CPU seconds ``probe()`` takes at this benchmark's reference host speed
#: (about its time on the host the benchmark was defined on, when quiet).
PROBE_REF_S = 0.0012
#: Measured work between two probes, in CPU seconds.
PROBE_EVERY_S = 0.1


def probe() -> float:
    """CPU seconds of a fixed pure-Python loop: how fast the host runs now.

    On a shared host the same code runs up to ~1.5x slower for seconds at a
    time, in CPU time too (other tenants contend for the core and its
    caches), and the speed between such stretches drifts by a fifth over
    minutes.  The probe slows down with the program, so dividing by it
    removes the host's share of a time.  The loop runs three times and the
    fastest counts, so an interrupt during one does not.
    """
    best = math.inf
    for _ in range(3):
        t0 = process_time()
        total = 0
        seen = {}
        for i in range(10_000):
            total += i * i
            seen[i & 255] = total
        best = min(best, process_time() - t0)
    return best


class ScaledTimes:
    """Operation CPU times scaled to the reference host speed.

    ``add`` takes one operation's CPU time.  After every PROBE_EVERY_S of
    them a probe runs, outside the timed operations, and the operations
    since the last probe are scaled by PROBE_REF_S over the mean of the
    probe before and the probe after them.  ``times`` holds the scaled
    times in the order added, once ``flush`` has run.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self._pending: list[float] = []
        self._before = probe()

    def add(self, seconds: float) -> None:
        self._pending.append(seconds)
        if sum(self._pending) >= PROBE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        after = probe()
        scale = 2 * PROBE_REF_S / (self._before + after)
        self.times += [t * scale for t in self._pending]
        self._pending = []
        self._before = after


_setup_probes: list[float] = []


def start_setup() -> None:
    """Probe the host as a child process starts setting up."""
    _setup_probes.append(probe())


def ready() -> None:
    """Tell the orchestrator set-up is done, with the host speed over it
    (the mean of the probes at its start and end)."""
    emit("ready", probe=(_setup_probes[0] + probe()) / 2)


def use_source_tree() -> None:
    """Import the program from ``src/`` of this checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def source_env() -> dict[str, str]:
    """Environment for a subprocess that imports the program from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of a non-empty list."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    return ordered[min(len(ordered), max(1, rank)) - 1]


def own_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds_of(pid: int) -> float:
    """User plus system CPU time a live process has used so far."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def child_pids(pid: int) -> list[int]:
    """Direct children of a live process."""
    path = Path(f"/proc/{pid}/task/{pid}/children")
    return [int(p) for p in path.read_text().split()]


def pid_alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except FileNotFoundError:
        return False
    return fields[0] != "Z"


def emit(kind: str, **payload) -> None:
    """One protocol line from a workload child to the orchestrator."""
    print(json.dumps({"event": kind, **payload}), flush=True)

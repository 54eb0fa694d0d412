"""Artifact comparison: gate perf/quality drift against a baseline.

``python -m repro.benchkit compare baseline/ current/`` diffs two
directories of ``BENCH_*.json`` artifacts:

* **quality metrics** (``metrics``) — any drift is a failure, at every
  tolerance.  These are approximation ratios, LP/gap values, agreement
  counts: the numbers the paper's claims pin down, deterministic given
  the seed.
* **claim checks** (``checks``) — a check that held in the baseline
  must still hold (new checks may appear freely).
* **timings** — a timing may regress by at most ``--tolerance-pct``
  percent (faster is always fine).  Timings below a 10 ms floor are
  skipped as noise; ``--skip-timings`` disables the gate entirely for
  cross-machine comparisons.
* **coverage** — every baseline artifact needs a current counterpart
  with matching schema version, tier and seed; after ``run --only``,
  give ``compare`` the same ``--only`` list.

The comparator itself only touches the artifact JSON — it never re-runs
benchmarks, so the CI regression job stays cheap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.benchkit.result import validate_result

#: Timings shorter than this (seconds) are noise, not signal.
TIMING_FLOOR_S = 0.010

FAIL = "fail"
WARN = "warn"


@dataclass(frozen=True)
class Finding:
    """One comparator observation; failures drive the exit code."""

    bench_id: str
    severity: str  # FAIL or WARN
    kind: str  # e.g. "quality-drift", "timing-regression"
    message: str

    def render(self) -> str:
        return f"[{self.severity.upper()}] {self.bench_id} {self.kind}: {self.message}"


def _load_dir(path: str | Path) -> dict[str, dict[str, Any]]:
    """Load every BENCH_*.json in a directory, keyed by bench id."""
    directory = Path(path)
    if not directory.is_dir():
        raise FileNotFoundError(f"artifact directory not found: {directory}")
    docs: dict[str, dict[str, Any]] = {}
    for artifact in sorted(directory.glob("BENCH_*.json")):
        doc = json.loads(artifact.read_text())
        errors = validate_result(doc)
        if errors:
            raise ValueError(
                f"{artifact}: invalid artifact: {'; '.join(errors)}"
            )
        docs[doc["bench_id"]] = doc
    return docs


def compare_results(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    *,
    tolerance_pct: float = 20.0,
    skip_timings: bool = False,
) -> list[Finding]:
    """Diff two artifact documents for the same benchmark."""
    bench_id = baseline["bench_id"]
    findings: list[Finding] = []

    def fail(kind: str, message: str) -> None:
        findings.append(Finding(bench_id, FAIL, kind, message))

    def warn(kind: str, message: str) -> None:
        findings.append(Finding(bench_id, WARN, kind, message))

    for key in ("schema_version", "tier", "seed"):
        if baseline[key] != current[key]:
            fail(
                "incomparable",
                f"{key} differs: baseline {baseline[key]!r} "
                f"vs current {current[key]!r}",
            )
    if any(f.kind == "incomparable" for f in findings):
        return findings

    # Quality metrics: exact equality (values are rounded at emit).
    base_metrics, cur_metrics = baseline["metrics"], current["metrics"]
    for name, base_value in sorted(base_metrics.items()):
        if name not in cur_metrics:
            fail("quality-missing", f"metric {name!r} disappeared")
        elif cur_metrics[name] != base_value:
            fail(
                "quality-drift",
                f"metric {name!r}: baseline {base_value!r} "
                f"-> current {cur_metrics[name]!r}",
            )
    for name in sorted(set(cur_metrics) - set(base_metrics)):
        warn("quality-new", f"new metric {name!r} (not in baseline)")

    # Claim checks: everything that held must keep holding.
    base_checks, cur_checks = baseline["checks"], current["checks"]
    for name, held in sorted(base_checks.items()):
        if name not in cur_checks:
            fail("check-missing", f"check {name!r} disappeared")
        elif held and not cur_checks[name]:
            fail("check-broken", f"check {name!r} no longer holds")
    for name, ok in sorted(cur_checks.items()):
        if name not in base_checks and not ok:
            fail("check-broken", f"new check {name!r} is failing")

    # Timings: regression gate with tolerance; faster is always fine.
    if not skip_timings:
        budget = 1.0 + max(tolerance_pct, 0.0) / 100.0
        for name, base_value in sorted(baseline["timings"].items()):
            if base_value < TIMING_FLOOR_S:
                continue
            cur_value = current["timings"].get(name)
            if cur_value is None:
                warn("timing-missing", f"timing {name!r} disappeared")
            elif cur_value > base_value * budget:
                fail(
                    "timing-regression",
                    f"timing {name!r}: {base_value:.4f}s -> "
                    f"{cur_value:.4f}s "
                    f"(+{(cur_value / base_value - 1) * 100:.1f}%, "
                    f"tolerance {tolerance_pct:g}%)",
                )
    return findings


def compare_dirs(
    baseline_dir: str | Path,
    current_dir: str | Path,
    *,
    tolerance_pct: float = 20.0,
    skip_timings: bool = False,
    only: str | None = None,
) -> list[Finding]:
    """Diff two artifact directories; see the module docstring for rules."""
    baseline = _load_dir(baseline_dir)
    current = _load_dir(current_dir)
    if only:
        wanted = {p.strip().upper() for p in only.split(",") if p.strip()}
        baseline = {k: v for k, v in baseline.items() if k in wanted}
        current = {k: v for k, v in current.items() if k in wanted}
    findings: list[Finding] = []
    if not baseline:
        findings.append(
            Finding("-", FAIL, "coverage", "baseline directory has no artifacts")
        )
    for bench_id in sorted(baseline, key=lambda i: int(i[1:])):
        if bench_id not in current:
            findings.append(
                Finding(
                    bench_id,
                    FAIL,
                    "coverage",
                    "baseline artifact has no current counterpart",
                )
            )
            continue
        findings.extend(
            compare_results(
                baseline[bench_id],
                current[bench_id],
                tolerance_pct=tolerance_pct,
                skip_timings=skip_timings,
            )
        )
    for bench_id in sorted(set(current) - set(baseline), key=lambda i: int(i[1:])):
        findings.append(
            Finding(
                bench_id,
                WARN,
                "coverage",
                "current artifact has no baseline (commit one on merge)",
            )
        )
    if set(baseline) - set(current):
        findings.append(
            Finding(
                "-",
                WARN,
                "coverage",
                "if you ran a subset with run --only, pass the same --only "
                "to compare",
            )
        )
    return findings


def has_failures(findings: list[Finding]) -> bool:
    return any(f.severity == FAIL for f in findings)


def render_findings(findings: list[Finding], compared: int | None = None) -> str:
    """Human summary for CLI output."""
    lines = [f.render() for f in findings]
    fails = sum(1 for f in findings if f.severity == FAIL)
    warns = len(findings) - fails
    suffix = f" over {compared} benchmark(s)" if compared is not None else ""
    if fails:
        lines.append(f"compare: {fails} failure(s), {warns} warning(s){suffix}")
    else:
        lines.append(f"compare: ok, {warns} warning(s){suffix}")
    return "\n".join(lines)

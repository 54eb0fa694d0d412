"""The ``BenchResult`` artifact: one schema-versioned JSON per benchmark.

Every benchmark run — standalone ``bench_eN_*.py --json OUT``, the
harness (``python -m repro.benchkit run``) or CI — produces the same
payload, so artifacts from different sources diff cleanly:

* identity: ``bench_id``, ``title``, ``claim``, ``tier``, ``seed``;
* ``tables``: the printed reproduction tables as structured rows;
* ``metrics``: the *quality* numbers (approximation ratios, LP/gap
  values, agreement counts) — the comparator treats any drift here as a
  failure regardless of tolerance;
* ``checks``: named boolean claim assertions (all must hold);
* ``timings``: named wall-clock measurements in seconds (the comparator
  applies ``--tolerance-pct`` to these);
* ``solver``: the counters of the fresh default solver service the run
  is given (solves, cache hits, backend work, in any thread);
* ``environment``: interpreter/platform/library fingerprint.

Floats stored in ``metrics`` are rounded to 9 decimals at record time so
equality survives a JSON round-trip and is meaningful across runs.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

#: Bump on any backwards-incompatible artifact change; the comparator
#: refuses to diff artifacts with mismatched versions.
SCHEMA_VERSION = 1

#: Recognized benchmark tiers, cheapest first.
TIERS = ("smoke", "full")

#: The seed every committed baseline uses (see benchmarks/baselines/).
DEFAULT_SEED = 2022

_METRIC_DECIMALS = 9

_REQUIRED_KEYS = {
    "schema_version": int,
    "bench_id": str,
    "title": str,
    "claim": str,
    "tier": str,
    "seed": int,
    "tables": list,
    "metrics": dict,
    "checks": dict,
    "timings": dict,
    "solver": dict,
    "environment": dict,
}


def _jsonify(value: Any) -> Any:
    """Coerce numpy scalars / tuples into plain JSON-friendly values."""
    if value is None or isinstance(value, (str, bool, int)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return _jsonify(value.item())
    return str(value)


def environment_fingerprint() -> dict[str, Any]:
    """Interpreter/platform/library versions for artifact provenance."""
    fingerprint: dict[str, Any] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }
    for lib in ("numpy", "scipy"):
        module = sys.modules.get(lib)
        if module is None:
            try:
                module = __import__(lib)
            except ImportError:  # pragma: no cover - both are hard deps
                continue
        fingerprint[lib] = getattr(module, "__version__", "unknown")
    return fingerprint


@dataclass
class BenchResult:
    """Accumulator for one benchmark run; serializes to BENCH_<ID>.json."""

    bench_id: str
    title: str
    claim: str = ""
    tier: str = "full"
    seed: int = DEFAULT_SEED
    tables: list[dict[str, Any]] = field(default_factory=list)
    metrics: dict[str, Any] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    solver: dict[str, Any] = field(default_factory=dict)
    environment: dict[str, Any] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    # -- recording ----------------------------------------------------

    def add_table(
        self,
        name: str,
        headers: Sequence[str],
        rows: Sequence[Sequence[Any]],
        title: str = "",
    ) -> None:
        self.tables.append(
            {
                "name": name,
                "title": title or name,
                "headers": [str(h) for h in headers],
                "rows": [_jsonify(list(row)) for row in rows],
            }
        )

    def add_metric(self, name: str, value: Any) -> None:
        """Record a quality metric (zero drift tolerance in compare)."""
        if value is None:
            return
        if isinstance(value, bool):
            raise TypeError(f"metric {name!r}: use add_check for booleans")
        if hasattr(value, "item"):
            value = value.item()
        if isinstance(value, float):
            value = round(value, _METRIC_DECIMALS)
        elif not isinstance(value, int):
            raise TypeError(f"metric {name!r} must be numeric, got {value!r}")
        self.metrics[name] = value

    def add_check(self, name: str, ok: Any) -> None:
        self.checks[name] = bool(ok)

    def add_timing(self, name: str, seconds: float) -> None:
        self.timings[name] = float(seconds)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    # -- serialization ------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "bench_id": self.bench_id,
            "title": self.title,
            "claim": self.claim,
            "tier": self.tier,
            "seed": self.seed,
            "tables": _jsonify(self.tables),
            "metrics": _jsonify(self.metrics),
            "checks": {k: bool(v) for k, v in self.checks.items()},
            "timings": {k: float(v) for k, v in self.timings.items()},
            "solver": _jsonify(self.solver),
            "environment": _jsonify(self.environment),
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "BenchResult":
        errors = validate_result(doc)
        if errors:
            raise ValueError(
                f"invalid BenchResult document: {'; '.join(errors)}"
            )
        return cls(
            bench_id=doc["bench_id"],
            title=doc["title"],
            claim=doc["claim"],
            tier=doc["tier"],
            seed=doc["seed"],
            tables=list(doc["tables"]),
            metrics=dict(doc["metrics"]),
            checks=dict(doc["checks"]),
            timings=dict(doc["timings"]),
            solver=dict(doc["solver"]),
            environment=dict(doc["environment"]),
            schema_version=doc["schema_version"],
        )

    def artifact_name(self) -> str:
        return f"BENCH_{self.bench_id}.json"

    def write(self, out_dir: str | Path) -> Path:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / self.artifact_name()
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        return path

    @classmethod
    def read(cls, path: str | Path) -> "BenchResult":
        return cls.from_dict(json.loads(Path(path).read_text()))

    # -- rendering ----------------------------------------------------

    def render(self) -> str:
        """Human-readable report (what the standalone mains print)."""
        from repro.analysis.tables import render_table

        lines = [f"{self.bench_id} [{self.tier}] — {self.title}"]
        if self.claim:
            lines.append(f"claim: {self.claim}")
        for table in self.tables:
            lines.append("")
            lines.append(
                render_table(
                    table["headers"], table["rows"], title=table["title"]
                )
            )
        if self.metrics:
            lines.append("")
            lines.append(
                render_table(
                    ["metric", "value"],
                    sorted(self.metrics.items()),
                    title="quality metrics (zero drift tolerance)",
                )
            )
        if self.checks:
            lines.append("")
            lines.append(
                render_table(
                    ["check", "ok"],
                    sorted(self.checks.items()),
                    title="claim checks",
                )
            )
        if self.timings:
            lines.append("")
            lines.append(
                render_table(
                    ["timing", "seconds"],
                    [[k, f"{v:.4f}"] for k, v in sorted(self.timings.items())],
                    title="timings",
                )
            )
        solves = self.solver.get("solves")
        if solves is not None:
            lines.append(
                f"\nsolver: {solves} LP solves, "
                f"{self.solver.get('cache_hits', 0)} cache hits, "
                f"{self.solver.get('backend_solves', 0)} backend solves"
            )
        verdict = "ok" if self.passed else "FAIL"
        bad = [name for name, ok in self.checks.items() if not ok]
        lines.append(
            f"{verdict}: {self.bench_id}"
            + (f" — failed checks: {', '.join(bad)}" if bad else "")
        )
        return "\n".join(lines)


def validate_result(doc: Mapping[str, Any]) -> list[str]:
    """Schema check for an artifact document; returns human messages."""
    errors: list[str] = []
    if not isinstance(doc, Mapping):
        return ["document is not a JSON object"]
    for key, kind in _REQUIRED_KEYS.items():
        if key not in doc:
            errors.append(f"missing key {key!r}")
        elif not isinstance(doc[key], kind):
            errors.append(
                f"key {key!r} should be {kind.__name__}, "
                f"got {type(doc[key]).__name__}"
            )
    if errors:
        return errors
    if doc["schema_version"] != SCHEMA_VERSION:
        errors.append(
            f"schema_version {doc['schema_version']} != {SCHEMA_VERSION}"
        )
    bench_id = doc["bench_id"]
    if not (
        bench_id.startswith("E")
        and bench_id[1:].isdigit()
        and len(bench_id) > 1
    ):
        errors.append(f"bench_id {bench_id!r} does not match E<number>")
    if doc["tier"] not in TIERS:
        errors.append(f"tier {doc['tier']!r} not in {TIERS}")
    for name, value in doc["metrics"].items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            errors.append(f"metric {name!r} is not numeric: {value!r}")
    for name, value in doc["checks"].items():
        if not isinstance(value, bool):
            errors.append(f"check {name!r} is not boolean: {value!r}")
    for name, value in doc["timings"].items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            errors.append(f"timing {name!r} is not numeric: {value!r}")
    for i, table in enumerate(doc["tables"]):
        if not isinstance(table, Mapping):
            errors.append(f"table #{i} is not an object")
            continue
        for key in ("name", "headers", "rows"):
            if key not in table:
                errors.append(f"table #{i} missing {key!r}")
        headers = table.get("headers", [])
        for row in table.get("rows", []):
            if not isinstance(row, list) or len(row) != len(headers):
                errors.append(
                    f"table {table.get('name', i)!r} has a row whose width "
                    f"does not match its headers"
                )
                break
    return errors

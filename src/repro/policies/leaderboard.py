"""Competitive-ratio leaderboard and corpus feasibility sweeps.

The leaderboard runs every registered policy over a suite of instances
(all handcrafted families, the adversarial trap traces, plus seeded
shared-release randoms — the class where online policies are provably
safe), computes each policy's empirical ratio against the exact optimum
with :func:`~repro.online.policies.safe_ratio`, and ranks policies by
mean ratio.  Every produced schedule is re-checked with the independent
property oracle (:func:`repro.verify.properties.check_schedule`) — an
invalid schedule is a *defect*, reported separately from honest online
failures (:class:`~repro.util.errors.InfeasibleInstanceError` on
adversarial arrivals) and structural unsupports (non-laminar input to a
laminar-only policy).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

from repro.baselines.exact import exact_or_incumbent
from repro.instances.families import ALL_FAMILIES
from repro.instances.io import load_instance
from repro.instances.jobs import Instance, Job
from repro.online.policies import safe_ratio
from repro.policies.base import PolicyError
from repro.policies.registry import make_policy, policy_names
from repro.util.errors import InfeasibleInstanceError
from repro.verify.properties import check_schedule

#: Trap traces shipped in ``data/`` (shrinker-generated adversarial
#: inputs) that the leaderboard always includes when present.
TRAP_FILES = (
    "online_defer_trap.json",
    "online_eager_trap.json",
    "greedy_adversarial_160.json",
    "unit_lazy_suboptimal.json",
)


def _shared_release(
    n_jobs: int, g: int, horizon: int, seed: int
) -> Instance:
    """A feasible all-released-at-zero instance (nested by construction).

    Deadlines are drawn as prefix windows ``[0, d)``.  Volume bounds
    alone don't imply feasibility (a long job is *forced* into every
    prefix by the one-unit-per-slot rule), so each draw is admitted only
    if the real all-slots flow check still passes; rejected draws are
    skipped, keeping generation deterministic per seed.
    """
    from repro.flow.feasibility import all_slots_feasible

    rng = random.Random(seed)
    jobs: list[Job] = []
    for k in range(n_jobs):
        d = rng.randint(2, horizon)
        p = rng.randint(1, d)
        candidate = jobs + [Job(id=k, release=0, deadline=d, processing=p)]
        if all_slots_feasible(Instance(jobs=tuple(candidate), g=g)):
            jobs = candidate
    return Instance(
        jobs=tuple(jobs), g=g, name=f"shared_release(seed={seed})"
    )


def default_data_dir() -> Path:
    """The repo's ``data/`` directory (checkout layout)."""
    return Path(__file__).resolve().parents[3] / "data"


def leaderboard_suite(
    *, smoke: bool = True, seed: int = 2022, data_dir: str | Path | None = None
) -> list[Instance]:
    """The standard instance suite: families + traps + shared-release."""
    instances: list[Instance] = []
    family_params = {
        "section5_gap": [(2,), (3,)],
        "natural_gap": [(2,), (3, 2)],
        "rigid_chain": [(3,), (4,)],
        "batched_groups": [(3, 2)],
        "greedy_trap": [(2,), (3,)],
        "two_level": [(2, 2), (3, 2)],
    }
    if not smoke:
        family_params = {
            name: params + [tuple(v + 2 for v in params[-1])]
            for name, params in family_params.items()
        }
    for name, param_sets in family_params.items():
        fn = ALL_FAMILIES[name]
        for params in param_sets:
            inst = fn(*params)
            instances.append(inst)
    data = Path(data_dir) if data_dir is not None else default_data_dir()
    for fname in TRAP_FILES:
        path = data / fname
        if path.is_file():
            # The shipped traps carry their generator-era names; relabel
            # by file so leaderboard tables point at the actual trace.
            instances.append(
                replace(load_instance(path), name=fname.removesuffix(".json"))
            )
    count = 3 if smoke else 8
    for k in range(count):
        instances.append(
            _shared_release(
                n_jobs=5 + k, g=2 + (k % 2), horizon=10 + 2 * k,
                seed=seed + k,
            )
        )
    return instances


@dataclass
class PolicyRow:
    """One leaderboard line: a policy's aggregate over the suite."""

    policy: str
    kind: str
    solved: int = 0
    failed: int = 0
    unsupported: int = 0
    invalid: int = 0
    optimal: int = 0
    ratios: list[float] = field(default_factory=list)

    @property
    def mean_ratio(self) -> float | None:
        if not self.ratios:
            return None
        return sum(self.ratios) / len(self.ratios)

    @property
    def max_ratio(self) -> float | None:
        return max(self.ratios) if self.ratios else None


@dataclass
class Leaderboard:
    """Ranked leaderboard plus the defects found while building it."""

    rows: list[PolicyRow]
    num_instances: int
    opt_certified: bool
    defects: list[str] = field(default_factory=list)

    def render(self) -> str:
        from repro.analysis.tables import render_table

        headers = [
            "rank", "policy", "kind", "mean ratio", "max ratio",
            "optimal", "solved", "failed", "unsupported",
        ]
        table_rows = []
        for rank, row in enumerate(self.rows, start=1):
            table_rows.append([
                rank,
                row.policy,
                row.kind,
                "-" if row.mean_ratio is None else f"{row.mean_ratio:.4f}",
                "-" if row.max_ratio is None else f"{row.max_ratio:.4f}",
                row.optimal,
                row.solved,
                row.failed,
                row.unsupported,
            ])
        return render_table(
            headers,
            table_rows,
            title=(
                f"Policy leaderboard over {self.num_instances} instances "
                "(ratio vs exact optimum; lower is better)"
            ),
        )


def run_leaderboard(
    instances: Sequence[Instance] | None = None,
    policies: Sequence[str] | None = None,
    *,
    smoke: bool = True,
    seed: int = 2022,
    node_budget: int = 200_000,
) -> Leaderboard:
    """Run every policy over every instance; rank by mean ratio.

    Policies that solve nothing (all failures/unsupported) sort last.
    ``defects`` collects contract violations — invalid schedules or a
    policy beating a *certified* optimum — and is empty on a healthy
    registry.
    """
    if instances is None:
        instances = leaderboard_suite(smoke=smoke, seed=seed)
    names = list(policies) if policies is not None else policy_names()

    optima: list[int] = []
    certified = True
    for inst in instances:
        result, reason = exact_or_incumbent(inst, node_budget=node_budget)
        optima.append(result.optimum)
        certified = certified and reason is None

    rows: dict[str, PolicyRow] = {}
    defects: list[str] = []
    for name in names:
        policy = make_policy(name)
        row = PolicyRow(policy=name, kind=policy.kind)
        rows[name] = row
        for inst, opt in zip(instances, optima):
            try:
                result = make_policy(name).run(inst)
            except PolicyError:
                row.unsupported += 1
                continue
            except InfeasibleInstanceError:
                row.failed += 1
                continue
            violations = check_schedule(result.schedule)
            if violations:
                row.invalid += 1
                defects.append(
                    f"{name} on {inst.name!r}: invalid schedule "
                    f"({violations[0]})"
                )
                continue
            ratio = safe_ratio(result.active_time, opt)
            if ratio < 1.0 - 1e-9 and certified:
                defects.append(
                    f"{name} on {inst.name!r}: cost {result.active_time} "
                    f"beats certified optimum {opt}"
                )
            row.solved += 1
            row.ratios.append(ratio)
            if result.active_time == opt:
                row.optimal += 1

    ranked = sorted(
        rows.values(),
        key=lambda r: (
            r.mean_ratio is None,
            r.mean_ratio if r.mean_ratio is not None else 0.0,
            -r.solved,
            r.policy,
        ),
    )
    return Leaderboard(
        rows=ranked,
        num_instances=len(instances),
        opt_certified=certified,
        defects=defects,
    )


@dataclass
class SweepReport:
    """Feasibility sweep outcome over a corpus shard."""

    instances: int
    runs: int
    solved: int
    failed: int
    unsupported: int
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return (
            f"policy feasibility sweep: {status} — {self.instances} "
            f"instances x {self.runs // max(self.instances, 1)} policies: "
            f"{self.solved} solved, {self.failed} online-infeasible, "
            f"{self.unsupported} unsupported"
        )


def feasibility_sweep(
    instances: Iterable[Instance],
    policies: Sequence[str] | None = None,
) -> SweepReport:
    """Every policy must either solve each instance *validly* or fail
    with a typed, expected error — anything else is a violation."""
    names = list(policies) if policies is not None else policy_names()
    report = SweepReport(
        instances=0, runs=0, solved=0, failed=0, unsupported=0
    )
    for inst in instances:
        report.instances += 1
        for name in names:
            report.runs += 1
            try:
                result = make_policy(name).run(inst)
            except PolicyError:
                report.unsupported += 1
                continue
            except InfeasibleInstanceError:
                report.failed += 1
                continue
            except Exception as exc:  # noqa: BLE001 - the sweep is the net
                report.violations.append(
                    f"{name} on {inst.name!r}: {type(exc).__name__}: {exc}"
                )
                continue
            violations = check_schedule(result.schedule)
            if violations:
                report.violations.append(
                    f"{name} on {inst.name!r}: invalid schedule "
                    f"({violations[0]})"
                )
            else:
                report.solved += 1
    return report

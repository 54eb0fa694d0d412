"""Randomized differential-testing campaigns over the scheduling pipeline.

A *campaign* draws ``n_instances`` random instances from one of three
families, runs the :mod:`repro.verify.oracle` on each, shrinks any failure
to a minimal counterexample, and emits a benchkit-style JSON report plus
one counterexample file per distinct failure (via :mod:`repro.instances.io`,
so a failing instance can be committed under ``tests/counterexamples/`` and
replayed forever).

Families
--------

``laminar``
    :func:`repro.instances.generators.random_laminar` with randomized
    size/capacity/horizon/unit-fraction — the main paper pipeline.
``general``
    :func:`repro.instances.generators.random_general` (crossing windows),
    exercising the baseline cross-checks.
``tight``
    The named parametric families of :mod:`repro.instances.families`
    (gap instances, rigid chains, umbrella constructions) with random
    small parameters, optionally perturbed by dropping a random job —
    adversarial inputs sitting exactly on the paper's analytic boundaries.
``mixed``
    Round-robin over the three above (the default).

Determinism: every instance's seed is derived from ``(campaign seed,
index)`` via the shared :func:`repro.util.seeds.derive_seed` helper, so
a campaign is reproducible, any single failing index can be regenerated
in isolation, and a corpus built at the same seed holds the *same*
instances under the same keys.

Scale features (corpus-backed campaigns):

* ``FuzzConfig.corpus`` streams instances from a persistent
  :mod:`repro.corpus` store instead of regenerating them (the manifest
  is checked against the campaign seed/family/caps, and every entry key
  is checked against :func:`~repro.util.seeds.derive_seed` — key drift
  is a hard error, not silent wrong coverage);
* sharding (``FuzzConfig.shard_index / shard_count``, reassembled by
  :func:`merge_fuzz_reports`) and resume (``run_fuzz(...,
  checkpoint=path)``) come from the campaign engine in
  :mod:`repro.verify.campaign`, which twin fuzzing shares.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro import obs
from repro.instances.jobs import Instance
from repro.util.seeds import check_shard, derive_seed
from repro.verify.campaign import Campaign, shard_range
from repro.verify.oracle import (
    DEFAULT_EXACT_MAX_JOBS,
    OracleReport,
    verify_instance,
)
from repro.verify.shrinker import shrink_instance

FAMILIES = ("laminar", "general", "tight", "mixed")


@dataclass(frozen=True)
class FuzzConfig:
    """Parameters of one fuzz campaign."""

    n_instances: int = 100
    seed: int = 0
    family: str = "mixed"
    max_jobs: int = 12
    exact_max_jobs: int = DEFAULT_EXACT_MAX_JOBS
    shrink: bool = True
    #: Cross-check every greedy/exact flow probe of the campaign: the
    #: incremental engine against the from-scratch reference
    #: (:class:`~repro.verify.reference.DifferentialFlowProber`).  Any
    #: disagreement surfaces as a ``crash`` violation.
    cross_check_flow: bool = False
    #: Path to a :mod:`repro.corpus` directory to stream instances from
    #: instead of regenerating them; ``None`` keeps on-the-fly sampling.
    corpus: str | None = None
    #: Deterministic campaign split: this process handles the instances
    #: with ``index % shard_count == shard_index``.  The default
    #: ``0/1`` is the unsharded campaign.
    shard_index: int = 0
    shard_count: int = 1

    def __post_init__(self) -> None:
        for name in (
            "n_instances",
            "seed",
            "max_jobs",
            "exact_max_jobs",
            "shard_index",
            "shard_count",
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; pick one of {FAMILIES}"
            )
        if self.n_instances < 1:
            raise ValueError("n_instances must be >= 1")
        if self.max_jobs < 1:
            raise ValueError("max_jobs must be >= 1")
        check_shard(self.shard_index, self.shard_count)


@dataclass
class FuzzFailure:
    """One oracle violation, before and after shrinking."""

    index: int
    family: str
    report: OracleReport
    shrunk: Instance | None = None
    shrink_evals: int = 0

    @property
    def minimal(self) -> Instance:
        return self.shrunk if self.shrunk is not None else self.report.instance


@dataclass
class FuzzResult:
    """Outcome of :func:`run_fuzz`."""

    config: FuzzConfig
    checked: int = 0
    skipped_infeasible: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)
    wall_time_s: float = 0.0
    solver: dict[str, Any] = field(default_factory=dict)
    flow: dict[str, Any] = field(default_factory=dict)
    counterexample_paths: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _sample_laminar(rng: random.Random, seed: int, max_jobs: int) -> Instance:
    from repro.instances.generators import random_laminar

    n = rng.randint(1, max_jobs)
    return random_laminar(
        n,
        rng.randint(1, 4),
        horizon=rng.randint(max(4, n), max(8, 3 * n)),
        unit_fraction=rng.choice((0.0, 0.3, 0.7, 1.0)),
        seed=seed,
    )


def _sample_general(rng: random.Random, seed: int, max_jobs: int) -> Instance:
    from repro.instances.generators import random_general

    n = rng.randint(1, max_jobs)
    horizon = rng.randint(max(6, n), max(10, 3 * n))
    return random_general(
        n,
        rng.randint(1, 4),
        horizon=horizon,
        p_max=rng.randint(1, min(5, horizon - 1)),
        seed=seed,
    )


def _sample_tight(rng: random.Random, seed: int, max_jobs: int) -> Instance:
    from repro.instances.families import ALL_FAMILIES

    name = rng.choice(sorted(ALL_FAMILIES))
    build = ALL_FAMILIES[name]
    if name == "section5_gap":
        inst = build(rng.randint(1, 4))
    elif name == "natural_gap":
        inst = build(rng.randint(1, 3), rng.randint(1, 3))
    elif name == "rigid_chain":
        inst = build(rng.randint(1, 6))
    elif name == "batched_groups":
        inst = build(rng.randint(1, 4), rng.randint(1, 3))
    elif name == "greedy_trap":
        inst = build(rng.randint(2, 4))
    elif name == "two_level":
        inst = build(rng.randint(1, 3), rng.randint(1, 4))
    else:  # future families: try the one-int signature, fall back to laminar
        try:
            inst = build(rng.randint(1, 4))
        except TypeError:
            return _sample_laminar(rng, seed, max_jobs)
    if inst.n > 1 and rng.random() < 0.25:
        # Perturb off the analytic boundary: drop one random job.
        jobs = list(inst.jobs)
        jobs.pop(rng.randrange(len(jobs)))
        inst = Instance(
            jobs=tuple(jobs), g=inst.g, name=f"{inst.name}-dropped"
        ).renumbered()
    return inst


_SAMPLERS: dict[str, Callable[[random.Random, int, int], Instance]] = {
    "laminar": _sample_laminar,
    "general": _sample_general,
    "tight": _sample_tight,
}


def campaign_family(family: str, index: int) -> str:
    """The concrete family of campaign item ``index`` (mixed rotates)."""
    return FAMILIES[index % 3] if family == "mixed" else family


def sample_instance(config: FuzzConfig, index: int) -> Instance:
    """The ``index``-th instance of the campaign (pure function of config)."""
    derived = derive_seed(config.seed, index)
    rng = random.Random(derived)
    family = campaign_family(config.family, index)
    return _SAMPLERS[family](rng, derived, config.max_jobs)


def campaign_instances(
    config: FuzzConfig,
) -> Iterator[tuple[int, str, Instance]]:
    """Stream the campaign's ``(index, family, instance)`` triples.

    Honours ``config.corpus`` (persistent store instead of regeneration)
    and the shard split; both paths yield *identical* triples for the
    indices they cover, which is what makes corpora, shards, and
    regenerating campaigns interchangeable.
    """
    if config.corpus is None:
        for index in shard_range(config, config.n_instances):
            yield index, campaign_family(config.family, index), (
                sample_instance(config, index)
            )
        return

    from repro.corpus.store import iter_corpus, read_manifest
    from repro.util.errors import CorpusError

    manifest = read_manifest(config.corpus)
    meta = manifest.get("meta", {})
    for key, want in (
        ("campaign_seed", config.seed),
        ("family", config.family),
        ("max_jobs", config.max_jobs),
    ):
        have = meta.get(key)
        if have is not None and have != want:
            raise CorpusError(
                f"corpus at {config.corpus} was built with {key}={have!r} "
                f"but the campaign wants {want!r} — rebuild the corpus or "
                "fix the campaign config",
                path=str(config.corpus),
            )
    if manifest["entries"] < config.n_instances:
        raise CorpusError(
            f"corpus at {config.corpus} holds {manifest['entries']} "
            f"entries but the campaign wants {config.n_instances}",
            path=str(config.corpus),
        )
    for entry in iter_corpus(
        config.corpus,
        shard=(config.shard_index, config.shard_count),
        limit=config.n_instances,
    ):
        expected_seed = derive_seed(config.seed, entry.key.index)
        if entry.key.seed != expected_seed or entry.key.index != entry.offset:
            raise CorpusError(
                f"corpus entry at offset {entry.offset} is keyed "
                f"(seed={entry.key.seed}, index={entry.key.index}) but the "
                f"campaign derives seed {expected_seed} for index "
                f"{entry.offset} — corpus keys drifted from campaign keys",
                path=str(config.corpus),
                offset=entry.offset,
            )
        yield entry.key.index, entry.key.family, entry.instance()


#: The instance-fuzz campaign kind (see :mod:`repro.verify.campaign`).
FUZZ_CAMPAIGN = Campaign(
    "fuzz",
    counters=("checked", "skipped_infeasible"),
    failures=("failures",),
    index_key="index",
    volatile=("counterexample_paths", "wall_time_s", "solver", "flow"),
)


def run_fuzz(
    config: FuzzConfig,
    *,
    out_dir: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
    verify: Callable[..., OracleReport] = verify_instance,
    checkpoint: str | Path | None = None,
    checkpoint_every: int = 50,
) -> FuzzResult:
    """Run one campaign; write counterexamples into ``out_dir`` if given.

    ``verify`` is injectable so tests can wrap the oracle (e.g. fault
    injection); production callers leave the default.

    ``checkpoint`` makes the campaign resumable: progress (counters plus
    the indices of failures found so far, keyed by campaign offsets) is
    persisted there every ``checkpoint_every`` instances.  If the file
    already exists and matches this config, already-processed indices
    are skipped — recorded failures are re-verified (deterministically)
    to rebuild their reports — so a rerun after a mid-campaign kill
    produces the identical :class:`FuzzResult`.
    """
    from repro.instances.io import dump_instance
    from repro.verify.reference import DifferentialFlowProber, flow_prober

    result = FuzzResult(config=config)
    prober = (
        flow_prober(DifferentialFlowProber)
        if config.cross_check_flow
        else nullcontext()
    )
    t0 = time.perf_counter()
    with obs.scope() as counted, prober:
        FUZZ_CAMPAIGN.run(
            result,
            campaign_instances(config),
            lambda tally, entry: _verify_one(tally, entry, verify, progress),
            checkpoint=checkpoint,
            every=checkpoint_every,
            progress=progress,
        )
    result.wall_time_s = time.perf_counter() - t0
    result.solver = counted["solver"]
    result.flow = counted["flow"]

    if out_dir is not None and result.failures:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for failure in result.failures:
            props = "-".join(failure.report.property_names()) or "unknown"
            path = out / (
                f"cex_seed{config.seed}_idx{failure.index}_{props}.json"
            )
            dump_instance(failure.minimal, path)
            result.counterexample_paths.append(str(path))
    return result


#: Read a :func:`run_fuzz` resume checkpoint, validating it belongs to
#: the config.
load_checkpoint = FUZZ_CAMPAIGN.load_checkpoint


def _verify_one(
    result: FuzzResult,
    entry: tuple[int, str, Instance],
    verify: Callable[..., OracleReport],
    progress: Callable[[str], None] | None,
) -> None:
    """Oracle one ``(index, family, instance)`` entry; record its
    counters and any failure."""
    index, family, instance = entry
    config = result.config
    report = verify(instance, exact_max_jobs=config.exact_max_jobs)
    if report.status == "infeasible":
        result.skipped_infeasible += 1
        return
    result.checked += 1
    if not report.failed:
        return
    failure = FuzzFailure(index=index, family=family, report=report)
    if config.shrink:
        props = report.property_names()

        def failing(candidate: Instance) -> bool:
            rep = verify(candidate, exact_max_jobs=config.exact_max_jobs)
            return rep.failed and bool(set(props) & set(rep.property_names()))

        shrunk = shrink_instance(instance, failing)
        failure.shrunk = shrunk.instance
        failure.shrink_evals = shrunk.evals
    result.failures.append(failure)
    if progress is not None:
        progress(
            f"instance #{index} violates "
            f"{', '.join(report.property_names())} "
            f"(shrunk to n={failure.minimal.n})"
        )


def fuzz_report_dict(result: FuzzResult) -> dict[str, Any]:
    """JSON-compatible campaign report (benchkit-style provenance)."""
    from repro.instances.io import instance_to_dict

    return FUZZ_CAMPAIGN.report(
        result,
        failures=[
            {
                "index": f.index,
                "family": f.family,
                "properties": f.report.property_names(),
                "violations": [
                    {"prop": v.prop, "detail": v.detail}
                    for v in f.report.violations
                ],
                "original_n": f.report.instance.n,
                "shrunk_n": f.minimal.n,
                "shrink_evals": f.shrink_evals,
                "instance": instance_to_dict(f.minimal),
            }
            for f in result.failures
        ],
    )


def write_fuzz_report(result: FuzzResult, path: str | Path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(fuzz_report_dict(result), indent=2))


#: Report keys that vary run to run (clocks, hardware, process warmth,
#: output paths) — everything else must be bit-for-bit reproducible.
#: They cover the twin reports' volatile keys too.
VOLATILE_REPORT_KEYS = (*FUZZ_CAMPAIGN.volatile, "environment")


def stable_fuzz_report(doc: dict[str, Any]) -> dict[str, Any]:
    """A report with its volatile (timing/env/path) keys stripped.

    Two campaigns over the same instances — sharded vs. unsharded,
    corpus-backed vs. regenerating, resumed vs. uninterrupted — must
    produce *equal* stable reports; this is the form tests, E17, and the
    CI merge gate compare.
    """
    return {
        k: v for k, v in doc.items() if k not in VOLATILE_REPORT_KEYS
    }


#: Reassemble one instance-fuzz report from its shard reports.
merge_fuzz_reports = FUZZ_CAMPAIGN.merge


# ---------------------------------------------------------------------------
# Twin fuzzing: differential replay of random event traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwinFuzzConfig:
    """Parameters of one twin replay campaign.

    Each trace is replayed through a twin session with every event's
    incremental repair cross-checked against the from-scratch flow path
    (:func:`~repro.verify.reference.cross_check_twin`); the committed
    history is then audited by the independent machine model, and the
    whole trace is replayed a second time without the checks to confirm
    the diff stream is deterministic (and that the cross-checks are
    read-only).
    """

    n_traces: int = 20
    n_events: int = 60
    seed: int = 0
    g_max: int = 4
    p_max: int = 4
    slack_max: int = 8
    #: Deterministic campaign split over trace indices, mirroring
    #: :class:`FuzzConfig` — ``0/1`` is the unsharded campaign.
    shard_index: int = 0
    shard_count: int = 1

    def __post_init__(self) -> None:
        if self.n_traces < 1:
            raise ValueError("n_traces must be >= 1")
        if self.n_events < 1:
            raise ValueError("n_events must be >= 1")
        if self.g_max < 1:
            raise ValueError("g_max must be >= 1")
        check_shard(self.shard_index, self.shard_count)


@dataclass
class TwinFuzzResult:
    """Outcome of :func:`run_twin_fuzz`."""

    config: TwinFuzzConfig
    traces: int = 0
    events: int = 0
    accepted: int = 0
    rejected: int = 0
    committed_units: int = 0
    mismatches: list[dict[str, Any]] = field(default_factory=list)
    audit_failures: list[dict[str, Any]] = field(default_factory=list)
    determinism_failures: list[dict[str, Any]] = field(default_factory=list)
    wall_time_s: float = 0.0
    flow: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not (
            self.mismatches or self.audit_failures or self.determinism_failures
        )


def twin_trace_for(config: TwinFuzzConfig, index: int):
    """The ``index``-th trace of the campaign (pure function of config)."""
    from repro.twin.events import random_trace

    derived = derive_seed(config.seed, index)
    g = derived % config.g_max + 1
    return random_trace(
        config.n_events,
        g,
        seed=derived,
        p_max=config.p_max,
        slack_max=config.slack_max,
        name=f"twin-fuzz-s{config.seed}-i{index}",
    )


#: The twin-fuzz campaign kind (see :mod:`repro.verify.campaign`).
TWIN_FUZZ_CAMPAIGN = Campaign(
    "twin-fuzz",
    counters=("traces", "events", "accepted", "rejected", "committed_units"),
    failures=("mismatches", "audit_failures", "determinism_failures"),
    index_key="trace",
    volatile=("wall_time_s", "flow"),
)


def run_twin_fuzz(
    config: TwinFuzzConfig,
    *,
    progress: Callable[[str], None] | None = None,
    checkpoint: str | Path | None = None,
    checkpoint_every: int = 5,
) -> TwinFuzzResult:
    """Replay seeded random traces with every cross-check armed.

    Honours the config's shard split (trace ``index % shard_count ==
    shard_index``) and, with ``checkpoint``, resumes a killed campaign
    the way :func:`run_fuzz` does: finished traces are skipped and the
    recorded failing traces are replayed to rebuild their records.
    """
    from repro.simulate.machine import BatchMachine
    from repro.twin import TwinSession, twin_fingerprint
    from repro.util.errors import InvalidInstanceError
    from repro.verify.reference import TwinMismatchError, cross_check_twin

    def check(tally: TwinFuzzResult, entry: tuple) -> None:
        index, trace = entry
        session = TwinSession(trace.g, start=trace.start)
        diffs = []
        broke = False
        for event_index, event in enumerate(trace.events):
            diff = session.apply(event)
            try:
                cross_check_twin(session, diff)
            except TwinMismatchError as exc:
                tally.mismatches.append(
                    {
                        "trace": index,
                        "event_index": event_index,
                        "error": str(exc),
                    }
                )
                broke = True
                break
            diffs.append(diff)
        tally.traces += 1
        tally.events += len(diffs)
        tally.accepted += sum(1 for d in diffs if d.accepted)
        tally.rejected += sum(1 for d in diffs if not d.accepted)
        tally.committed_units += session.counters["committed_units"]
        if broke:
            if progress is not None:
                progress(f"trace #{index}: MISMATCH at event {event_index}")
            return
        try:
            BatchMachine(trace.g).audit_twin(session)
        except InvalidInstanceError as exc:
            tally.audit_failures.append({"trace": index, "error": str(exc)})
            if progress is not None:
                progress(f"trace #{index}: audit failed: {exc}")
        replayed = TwinSession(trace.g, start=trace.start)
        if twin_fingerprint(replayed.replay(trace)) != twin_fingerprint(diffs):
            tally.determinism_failures.append({"trace": index})
            if progress is not None:
                progress(f"trace #{index}: diff stream not deterministic")

    traces = (
        (index, twin_trace_for(config, index))
        for index in shard_range(config, config.n_traces)
    )
    result = TwinFuzzResult(config=config)
    t0 = time.perf_counter()
    with obs.scope() as counted:
        TWIN_FUZZ_CAMPAIGN.run(
            result,
            traces,
            check,
            checkpoint=checkpoint,
            every=checkpoint_every,
            progress=progress,
        )
    result.wall_time_s = time.perf_counter() - t0
    result.flow = counted["flow"]
    return result


#: JSON-compatible twin campaign report (benchkit-style provenance).
twin_fuzz_report_dict = TWIN_FUZZ_CAMPAIGN.report


def write_twin_fuzz_report(result: TwinFuzzResult, path: str | Path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(twin_fuzz_report_dict(result), indent=2))


def render_twin_fuzz_result(result: TwinFuzzResult) -> str:
    """Multi-line human summary for the CLI."""
    config = result.config
    lines = [
        f"twin-fuzz: traces={config.n_traces} events/trace={config.n_events} "
        f"seed={config.seed} g_max={config.g_max}",
        f"  replayed {result.events} events "
        f"({result.accepted} accepted, {result.rejected} rejected, "
        f"{result.committed_units} units committed) "
        f"in {result.wall_time_s:.1f}s",
    ]
    for m in result.mismatches:
        lines.append(
            f"  MISMATCH trace #{m['trace']} event {m['event_index']}: "
            f"{m['error']}"
        )
    for a in result.audit_failures:
        lines.append(f"  AUDIT FAIL trace #{a['trace']}: {a['error']}")
    for d in result.determinism_failures:
        lines.append(f"  NON-DETERMINISTIC trace #{d['trace']}")
    if result.ok:
        lines.append("  all replays matched the from-scratch path")
    return "\n".join(lines)


def render_fuzz_result(result: FuzzResult) -> str:
    """Multi-line human summary for the CLI."""
    config = result.config
    lines = [
        f"fuzz: family={config.family} n={config.n_instances} "
        f"seed={config.seed} max_jobs={config.max_jobs}",
        f"  checked {result.checked}, skipped {result.skipped_infeasible} "
        f"infeasible, {len(result.failures)} violation(s) "
        f"in {result.wall_time_s:.1f}s",
    ]
    for failure in result.failures:
        lines.append(
            f"  FAIL #{failure.index} [{failure.family}] "
            f"{', '.join(failure.report.property_names())}: "
            f"n={failure.report.instance.n} -> shrunk n={failure.minimal.n}"
        )
        for violation in failure.report.violations[:3]:
            lines.append(f"    {violation.prop}: {violation.detail}")
    if result.counterexample_paths:
        lines.append("  counterexamples:")
        lines.extend(f"    {p}" for p in result.counterexample_paths)
    if result.ok:
        lines.append("  all properties held")
    return "\n".join(lines)

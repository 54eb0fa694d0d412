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
* ``FuzzConfig.shard_index / shard_count`` deterministically split one
  campaign across CI jobs or machines (instance ``index % count ==
  shard_index``); the union of all shards is exactly the unsharded
  campaign and :func:`merge_fuzz_reports` reassembles their reports;
* ``run_fuzz(..., checkpoint=path)`` makes a campaign resumable: the
  loop persists progress (keyed by campaign offsets) every
  ``checkpoint_every`` instances, and a rerun after a mid-campaign kill
  fast-forwards and reproduces the identical result.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro import obs
from repro.instances.jobs import Instance
from repro.util.seeds import derive_seed
from repro.verify.oracle import (
    DEFAULT_EXACT_MAX_JOBS,
    OracleReport,
    verify_instance,
)
from repro.verify.shrinker import shrink_instance

#: Schema marker for fuzz reports (separate from BenchResult's schema —
#: fuzz campaigns are not benchmarks and carry no ``bench_id``).
#: v2: config block gained ``corpus`` / ``shard_index`` / ``shard_count``.
#: v3: config block's ``flow_backend`` replaced by ``cross_check_flow``.
FUZZ_SCHEMA_VERSION = 3

#: Schema marker for resume checkpoints written by :func:`run_fuzz` /
#: :func:`run_twin_fuzz`.
CHECKPOINT_SCHEMA_VERSION = 1

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
    backend: str | None = None
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
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; pick one of {FAMILIES}"
            )
        if self.n_instances < 1:
            raise ValueError("n_instances must be >= 1")
        if self.max_jobs < 1:
            raise ValueError("max_jobs must be >= 1")
        if self.shard_count < 1 or not 0 <= self.shard_index < self.shard_count:
            raise ValueError(
                f"invalid shard {self.shard_index}/{self.shard_count}: "
                "need 0 <= shard_index < shard_count"
            )


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
        for index in range(config.n_instances):
            if index % config.shard_count != config.shard_index:
                continue
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
    shard = (
        (config.shard_index, config.shard_count)
        if config.shard_count > 1
        else None
    )
    for entry in iter_corpus(
        config.corpus, shard=shard, limit=config.n_instances
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
    from repro.flow.incremental import flow_stats
    from repro.instances.io import dump_instance
    from repro.solver.service import solver_stats
    from repro.verify.reference import DifferentialFlowProber, flow_prober

    result = FuzzResult(config=config)
    before = solver_stats()
    flow_before = flow_stats()
    scope = (
        flow_prober(DifferentialFlowProber)
        if config.cross_check_flow
        else nullcontext()
    )
    t0 = time.perf_counter()
    with scope:
        _run_campaign(
            config, result, verify, progress, checkpoint, checkpoint_every
        )
    result.wall_time_s = time.perf_counter() - t0
    result.solver = obs.delta(solver_stats(), before)
    result.flow = obs.delta(flow_stats(), flow_before)

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


def _config_dict(config: FuzzConfig) -> dict[str, Any]:
    """The report/checkpoint form of a campaign config."""
    return {
        "n_instances": config.n_instances,
        "seed": config.seed,
        "family": config.family,
        "max_jobs": config.max_jobs,
        "exact_max_jobs": config.exact_max_jobs,
        "shrink": config.shrink,
        "backend": config.backend,
        "cross_check_flow": config.cross_check_flow,
        "corpus": config.corpus,
        "shard_index": config.shard_index,
        "shard_count": config.shard_count,
    }


def load_checkpoint(
    path: str | Path, config: FuzzConfig
) -> dict[str, Any] | None:
    """Read a resume checkpoint, validating it belongs to ``config``.

    Returns ``None`` when the file does not exist (a fresh campaign).  A
    checkpoint written under a *different* config is an error — resuming
    it would silently mix two campaigns' coverage.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"fuzz checkpoint {path} is not valid JSON: {exc}"
        ) from exc
    if doc.get("kind") != "fuzz-checkpoint":
        raise ValueError(f"{path} is not a fuzz checkpoint")
    if doc.get("config") != _config_dict(config):
        raise ValueError(
            f"fuzz checkpoint {path} was written by a different campaign "
            f"config; refusing to resume (delete it to start over)"
        )
    return doc


def _write_checkpoint(
    path: Path,
    config: FuzzConfig,
    result: FuzzResult,
    next_index: int,
    done: bool,
) -> None:
    payload = {
        "kind": "fuzz-checkpoint",
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "config": _config_dict(config),
        "next_index": next_index,
        "checked": result.checked,
        "skipped_infeasible": result.skipped_infeasible,
        "failure_indices": [f.index for f in result.failures],
        "done": done,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2))
    tmp.replace(path)  # atomic: a kill mid-write never corrupts it


def _verify_one(
    config: FuzzConfig,
    result: FuzzResult,
    verify: Callable[..., OracleReport],
    progress: Callable[[str], None] | None,
    index: int,
    family: str,
    instance: Instance,
    *,
    count: bool = True,
) -> None:
    """Oracle one instance; record counters (unless replaying) and failures."""
    report = verify(
        instance,
        exact_max_jobs=config.exact_max_jobs,
        backend=config.backend,
    )
    if report.status == "infeasible":
        if count:
            result.skipped_infeasible += 1
        return
    if count:
        result.checked += 1
    if not report.failed:
        return
    failure = FuzzFailure(index=index, family=family, report=report)
    if config.shrink:
        props = report.property_names()

        def failing(candidate: Instance) -> bool:
            rep = verify(
                candidate,
                exact_max_jobs=config.exact_max_jobs,
                backend=config.backend,
            )
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


def _run_campaign(
    config: FuzzConfig,
    result: FuzzResult,
    verify: Callable[..., OracleReport],
    progress: Callable[[str], None] | None,
    checkpoint: str | Path | None = None,
    checkpoint_every: int = 50,
) -> None:
    """The campaign loop proper (the flow cross-check scope is the caller's).

    One pass over :func:`campaign_instances` covers both the fresh and
    the resumed case: indices below the checkpoint's ``next_index`` are
    fast-forwarded (recorded failures re-verified without bumping
    counters — deterministic, so the reconstructed reports are the ones
    the killed run saw), everything after runs normally with periodic
    checkpoint writes.
    """
    next_index = 0
    replay_failures: set[int] = set()
    checkpoint_path = Path(checkpoint) if checkpoint is not None else None
    if checkpoint_path is not None:
        state = load_checkpoint(checkpoint_path, config)
        if state is not None:
            next_index = state["next_index"]
            result.checked = state["checked"]
            result.skipped_infeasible = state["skipped_infeasible"]
            replay_failures = set(state["failure_indices"])
            if progress is not None:
                progress(
                    f"resuming campaign at index {next_index} "
                    f"({result.checked} checked, "
                    f"{len(replay_failures)} known failure(s))"
                )
    processed = 0
    for index, family, instance in campaign_instances(config):
        if index < next_index:
            if index in replay_failures:
                _verify_one(
                    config, result, verify, progress,
                    index, family, instance, count=False,
                )
            continue
        _verify_one(config, result, verify, progress, index, family, instance)
        processed += 1
        if checkpoint_path is not None and processed % checkpoint_every == 0:
            _write_checkpoint(
                checkpoint_path, config, result, index + 1, done=False
            )
    if checkpoint_path is not None:
        _write_checkpoint(
            checkpoint_path, config, result, config.n_instances, done=True
        )


def fuzz_report_dict(result: FuzzResult) -> dict[str, Any]:
    """JSON-compatible campaign report (benchkit-style provenance)."""
    from repro.benchkit.result import environment_fingerprint

    config = result.config
    return {
        "schema_version": FUZZ_SCHEMA_VERSION,
        "kind": "fuzz-report",
        "config": _config_dict(config),
        "checked": result.checked,
        "skipped_infeasible": result.skipped_infeasible,
        "n_failures": len(result.failures),
        "ok": result.ok,
        "failures": [
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
                "instance": _instance_dict(f.minimal),
            }
            for f in result.failures
        ],
        "counterexample_paths": result.counterexample_paths,
        "wall_time_s": result.wall_time_s,
        "solver": result.solver,
        "flow": result.flow,
        "environment": environment_fingerprint(),
    }


def _instance_dict(instance: Instance) -> dict[str, Any]:
    from repro.instances.io import instance_to_dict

    return instance_to_dict(instance)


def write_fuzz_report(result: FuzzResult, path: str | Path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(fuzz_report_dict(result), indent=2))


#: Report keys that vary run to run (clocks, hardware, process warmth,
#: output paths) — everything else must be bit-for-bit reproducible.
VOLATILE_REPORT_KEYS = (
    "wall_time_s",
    "solver",
    "flow",
    "environment",
    "counterexample_paths",
)


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


def merge_fuzz_reports(docs: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Reassemble one campaign report from its shard reports.

    The shards must cover one campaign exactly: same base config, one
    report per ``shard_index`` in ``0..shard_count-1``.  The merged
    report carries the unsharded config (``0/1``) and — apart from the
    volatile keys, where counters sum and the environment is taken from
    the first shard — equals the report an unsharded run would write.
    """
    if not docs:
        raise ValueError("no fuzz reports to merge")
    for doc in docs:
        if doc.get("kind") != "fuzz-report":
            raise ValueError(
                f"cannot merge {doc.get('kind')!r}: not a fuzz report"
            )
    base_configs = []
    shards = []
    for doc in docs:
        config = dict(doc["config"])
        shards.append((config.pop("shard_index"), config.pop("shard_count")))
        base_configs.append(config)
    if any(c != base_configs[0] for c in base_configs[1:]):
        raise ValueError(
            "cannot merge fuzz reports from different campaign configs"
        )
    counts = {n for _, n in shards}
    if len(counts) != 1:
        raise ValueError(f"mixed shard counts {sorted(counts)}")
    count = counts.pop()
    indices = sorted(i for i, _ in shards)
    if indices != list(range(count)):
        raise ValueError(
            f"shard reports do not partition the campaign: have shards "
            f"{indices} of {count}"
        )
    order = sorted(range(len(docs)), key=lambda k: shards[k][0])
    docs = [docs[k] for k in order]
    failures = sorted(
        (f for doc in docs for f in doc["failures"]),
        key=lambda f: f["index"],
    )
    merged_config = dict(base_configs[0])
    merged_config["shard_index"], merged_config["shard_count"] = 0, 1
    paths: list[str] = []
    for doc in docs:
        paths += doc.get("counterexample_paths", [])
    return {
        "schema_version": FUZZ_SCHEMA_VERSION,
        "kind": "fuzz-report",
        "config": merged_config,
        "checked": sum(doc["checked"] for doc in docs),
        "skipped_infeasible": sum(
            doc["skipped_infeasible"] for doc in docs
        ),
        "n_failures": len(failures),
        "ok": all(doc["ok"] for doc in docs),
        "failures": failures,
        "counterexample_paths": paths,
        "wall_time_s": sum(doc.get("wall_time_s", 0.0) for doc in docs),
        "solver": obs.merge({}, *(doc.get("solver", {}) for doc in docs)),
        "flow": obs.merge({}, *(doc.get("flow", {}) for doc in docs)),
        "environment": docs[0].get("environment", {}),
    }


# ---------------------------------------------------------------------------
# Twin fuzzing: differential replay of random event traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwinFuzzConfig:
    """Parameters of one twin replay campaign.

    Each trace is replayed through a ``differential`` twin session, so
    every event's incremental repair is cross-checked against the
    from-scratch flow path; the committed history is then audited by the
    independent machine model, and the whole trace is replayed a second
    time on the plain ``incremental`` backend to confirm the diff stream
    is deterministic (and that the cross-checks are read-only).
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
        if self.shard_count < 1 or not 0 <= self.shard_index < self.shard_count:
            raise ValueError(
                f"invalid shard {self.shard_index}/{self.shard_count}: "
                "need 0 <= shard_index < shard_count"
            )


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


def _twin_config_dict(config: TwinFuzzConfig) -> dict[str, Any]:
    return {
        "n_traces": config.n_traces,
        "n_events": config.n_events,
        "seed": config.seed,
        "g_max": config.g_max,
        "p_max": config.p_max,
        "slack_max": config.slack_max,
        "shard_index": config.shard_index,
        "shard_count": config.shard_count,
    }


def _load_twin_checkpoint(
    path: Path, config: TwinFuzzConfig
) -> dict[str, Any] | None:
    if not path.exists():
        return None
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"twin-fuzz checkpoint {path} is not valid JSON: {exc}"
        ) from exc
    if doc.get("kind") != "twin-fuzz-checkpoint":
        raise ValueError(f"{path} is not a twin-fuzz checkpoint")
    if doc.get("config") != _twin_config_dict(config):
        raise ValueError(
            f"twin-fuzz checkpoint {path} was written by a different "
            "campaign config; refusing to resume (delete it to start over)"
        )
    return doc


def _write_twin_checkpoint(
    path: Path, config: TwinFuzzConfig, result: TwinFuzzResult, next_index: int, done: bool
) -> None:
    payload = {
        "kind": "twin-fuzz-checkpoint",
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "config": _twin_config_dict(config),
        "next_index": next_index,
        "traces": result.traces,
        "events": result.events,
        "accepted": result.accepted,
        "rejected": result.rejected,
        "committed_units": result.committed_units,
        "mismatches": result.mismatches,
        "audit_failures": result.audit_failures,
        "determinism_failures": result.determinism_failures,
        "done": done,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2))
    tmp.replace(path)


def run_twin_fuzz(
    config: TwinFuzzConfig,
    *,
    progress: Callable[[str], None] | None = None,
    checkpoint: str | Path | None = None,
    checkpoint_every: int = 5,
) -> TwinFuzzResult:
    """Replay seeded random traces with every cross-check armed.

    Honours the config's shard split (trace ``index % shard_count ==
    shard_index``) and, with ``checkpoint``, resumes a killed campaign:
    twin failure records are plain dicts, so the checkpoint carries the
    full partial result and a resume fast-forwards past finished traces.
    """
    from repro.flow.incremental import flow_stats
    from repro.simulate.machine import BatchMachine
    from repro.twin import TwinSession, twin_fingerprint
    from repro.twin.session import TwinMismatchError
    from repro.util.errors import InvalidInstanceError

    result = TwinFuzzResult(config=config)
    next_index = 0
    checkpoint_path = Path(checkpoint) if checkpoint is not None else None
    if checkpoint_path is not None:
        state = _load_twin_checkpoint(checkpoint_path, config)
        if state is not None:
            next_index = state["next_index"]
            result.traces = state["traces"]
            result.events = state["events"]
            result.accepted = state["accepted"]
            result.rejected = state["rejected"]
            result.committed_units = state["committed_units"]
            result.mismatches = list(state["mismatches"])
            result.audit_failures = list(state["audit_failures"])
            result.determinism_failures = list(state["determinism_failures"])
            if progress is not None:
                progress(f"resuming twin campaign at trace {next_index}")
    flow_before = flow_stats()
    t0 = time.perf_counter()
    processed = 0
    for index in range(next_index, config.n_traces):
        if index % config.shard_count != config.shard_index:
            continue
        trace = twin_trace_for(config, index)
        session = TwinSession(
            trace.g, start=trace.start, backend="differential"
        )
        diffs = []
        broke = False
        for event_index, event in enumerate(trace.events):
            try:
                diffs.append(session.apply(event))
            except TwinMismatchError as exc:
                result.mismatches.append(
                    {
                        "trace": index,
                        "event_index": event_index,
                        "error": str(exc),
                    }
                )
                broke = True
                break
        result.traces += 1
        result.events += len(diffs)
        result.accepted += sum(1 for d in diffs if d.accepted)
        result.rejected += sum(1 for d in diffs if not d.accepted)
        result.committed_units += session.counters["committed_units"]
        if broke:
            if progress is not None:
                progress(f"trace #{index}: MISMATCH at event {event_index}")
        else:
            try:
                BatchMachine(trace.g).audit_twin(session)
            except InvalidInstanceError as exc:
                result.audit_failures.append(
                    {"trace": index, "error": str(exc)}
                )
                if progress is not None:
                    progress(f"trace #{index}: audit failed: {exc}")
            replayed = TwinSession(
                trace.g, start=trace.start, backend="incremental"
            )
            if twin_fingerprint(replayed.replay(trace)) != twin_fingerprint(
                diffs
            ):
                result.determinism_failures.append({"trace": index})
                if progress is not None:
                    progress(f"trace #{index}: diff stream not deterministic")
        processed += 1
        if checkpoint_path is not None and processed % checkpoint_every == 0:
            _write_twin_checkpoint(
                checkpoint_path, config, result, index + 1, done=False
            )
    if checkpoint_path is not None:
        _write_twin_checkpoint(
            checkpoint_path, config, result, config.n_traces, done=True
        )
    result.wall_time_s = time.perf_counter() - t0
    result.flow = obs.delta(flow_stats(), flow_before)
    return result


def twin_fuzz_report_dict(result: TwinFuzzResult) -> dict[str, Any]:
    """JSON-compatible campaign report (benchkit-style provenance)."""
    from repro.benchkit.result import environment_fingerprint

    config = result.config
    return {
        "schema_version": FUZZ_SCHEMA_VERSION,
        "kind": "twin-fuzz-report",
        "config": _twin_config_dict(config),
        "traces": result.traces,
        "events": result.events,
        "accepted": result.accepted,
        "rejected": result.rejected,
        "committed_units": result.committed_units,
        "n_mismatches": len(result.mismatches),
        "n_audit_failures": len(result.audit_failures),
        "n_determinism_failures": len(result.determinism_failures),
        "ok": result.ok,
        "mismatches": result.mismatches,
        "audit_failures": result.audit_failures,
        "determinism_failures": result.determinism_failures,
        "wall_time_s": result.wall_time_s,
        "flow": result.flow,
        "environment": environment_fingerprint(),
    }


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

"""One engine for seeded, sharded, resumable campaigns.

A campaign walks a stream of ``(index, ...)`` entries in index order and
hands each entry to a per-item check that adds to a result tally.  The
engine owns the plumbing every campaign kind shares:

* the shard split: a config's ``shard_index / shard_count`` selects the
  indices with ``index % shard_count == shard_index``
  (:func:`shard_range`), so the union of all shards is exactly the
  unsharded campaign;
* resume: :meth:`Campaign.run` with a checkpoint path persists the
  counters and the *indices* of failures found so far, atomically, every
  ``every`` items.  A rerun under the same config fast-forwards past the
  recorded prefix and re-checks the recorded failure indices into a
  scratch tally to rebuild their records.  Checks are deterministic, so
  the resumed result equals an uninterrupted run's;
* :meth:`Campaign.report` lays out every kind's JSON report the same
  way, and :meth:`Campaign.merge` reassembles shard reports into the
  unsharded report.

Users: instance fuzzing and twin replay fuzzing
(:data:`repro.verify.fuzz.FUZZ_CAMPAIGN`,
:data:`repro.verify.fuzz.TWIN_FUZZ_CAMPAIGN`).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro import obs

#: Schema marker for campaign reports (separate from BenchResult's schema:
#: campaigns are not benchmarks and carry no ``bench_id``).
#: v2: fuzz config block gained ``corpus`` / ``shard_index`` / ``shard_count``.
#: v3: fuzz config block's ``flow_backend`` replaced by ``cross_check_flow``.
REPORT_SCHEMA_VERSION = 3

#: Schema marker for resume checkpoints.
#: v2: one layout for every campaign kind (``counters`` block, failures
#: stored as indices and rebuilt by replay).
CHECKPOINT_SCHEMA_VERSION = 2

_CHECKPOINT_KEYS = frozenset(
    "kind schema_version config next_index counters failure_indices done".split()
)

#: Report keys every shard shares; the merged report takes the first
#: shard's value.
_FIRST_SHARD_KEYS = ("schema_version", "kind", "environment")


def shard_range(config: Any, n: int) -> range:
    """The campaign indices below ``n`` that ``config``'s shard owns."""
    return range(config.shard_index, n, config.shard_count)


@dataclass(frozen=True)
class Campaign:
    """What the engine must know about one campaign kind.

    ``counters`` name the result's integer tally fields, ``failures`` its
    lists of failure records, ``index_key`` the attribute (or, for dict
    records, the key) holding a record's campaign index, and ``volatile``
    the result fields that vary run to run (clocks, counter deltas,
    output paths).  Results are dataclasses built as
    ``Result(config=config)`` with an ``ok`` property; configs are frozen
    dataclasses with ``shard_index`` and ``shard_count`` fields.
    """

    kind: str
    counters: tuple[str, ...]
    failures: tuple[str, ...]
    index_key: str
    volatile: tuple[str, ...]

    def _index(self, record: Any) -> int:
        if isinstance(record, dict):
            return record[self.index_key]
        return getattr(record, self.index_key)

    def run(
        self,
        result: Any,
        stream: Iterable[tuple],
        check: Callable[[Any, tuple], None],
        *,
        checkpoint: str | Path | None = None,
        every: int = 50,
        progress: Callable[[str], None] | None = None,
    ) -> None:
        """Call ``check(result, entry)`` for each ``entry`` of ``stream``.

        Entries start with their campaign index, in ascending order.  With
        ``checkpoint``, indices already covered by a matching checkpoint
        are skipped, recorded failures are replayed, and progress is
        written every ``every`` checked entries and at the end.
        """
        config = result.config
        path = Path(checkpoint) if checkpoint is not None else None
        next_index = 0
        replay: set[int] = set()
        if path is not None:
            state = self.load_checkpoint(path, config)
            if state is not None:
                next_index = state["next_index"]
                for name, value in state["counters"].items():
                    setattr(result, name, value)
                replay = set(state["failure_indices"])
                if progress is not None:
                    progress(
                        f"resuming {self.kind} campaign at index {next_index} "
                        f"({len(replay)} known failure(s))"
                    )
        processed = 0
        for entry in stream:
            index = entry[0]
            if index < next_index:
                if index in replay:
                    scratch = type(result)(config=config)
                    check(scratch, entry)
                    for name in self.failures:
                        getattr(result, name).extend(getattr(scratch, name))
                continue
            check(result, entry)
            next_index = index + 1
            processed += 1
            if path is not None and processed % every == 0:
                self._save(path, result, next_index, done=False)
        if path is not None:
            self._save(path, result, next_index, done=True)

    def load_checkpoint(
        self, path: str | Path, config: Any
    ) -> dict[str, Any] | None:
        """Read a resume checkpoint, validating it belongs to ``config``.

        Returns ``None`` when the file does not exist (a fresh campaign).
        Anything else that is not this kind's current checkpoint layout
        for exactly this config raises :class:`ValueError`: resuming it
        would silently mix two campaigns' coverage.
        """
        path = Path(path)
        if not path.exists():
            return None
        try:
            doc = json.loads(path.read_text())
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValueError(
                f"{self.kind} checkpoint {path} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(doc, dict) or doc.get("kind") != (
            f"{self.kind}-checkpoint"
        ):
            raise ValueError(f"{path} is not a {self.kind} checkpoint")
        if doc.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
            raise ValueError(
                f"{self.kind} checkpoint {path} has schema version "
                f"{doc.get('schema_version')!r}, this build reads "
                f"{CHECKPOINT_SCHEMA_VERSION}; delete it to start over"
            )
        if doc.get("config") != asdict(config):
            raise ValueError(
                f"{self.kind} checkpoint {path} was written by a different "
                "campaign config; refusing to resume (delete it to start over)"
            )
        if (
            set(doc) != _CHECKPOINT_KEYS
            or not isinstance(doc["counters"], dict)
            or set(doc["counters"]) != set(self.counters)
        ):
            raise ValueError(f"{self.kind} checkpoint {path} is malformed")
        return doc

    def _save(
        self, path: Path, result: Any, next_index: int, done: bool
    ) -> None:
        payload = {
            "kind": f"{self.kind}-checkpoint",
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "config": asdict(result.config),
            "next_index": next_index,
            "counters": {name: getattr(result, name) for name in self.counters},
            "failure_indices": sorted(
                {
                    self._index(record)
                    for name in self.failures
                    for record in getattr(result, name)
                }
            ),
            "done": done,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload, indent=2))
        tmp.replace(path)  # atomic: a kill mid-write never corrupts it

    def report(self, result: Any, **records: list) -> dict[str, Any]:
        """JSON-compatible campaign report (benchkit-style provenance).

        Layout: header, counters, ``n_<list>`` per failure list, ``ok``,
        the failure lists (``records`` overrides a list's JSON form), the
        volatile fields, and the environment fingerprint.
        """
        from repro.benchkit.result import environment_fingerprint

        doc: dict[str, Any] = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "kind": f"{self.kind}-report",
            "config": asdict(result.config),
        }
        for name in self.counters:
            doc[name] = getattr(result, name)
        for name in self.failures:
            doc[f"n_{name}"] = len(getattr(result, name))
        doc["ok"] = result.ok
        for name in self.failures:
            doc[name] = records.get(name, getattr(result, name))
        for name in self.volatile:
            doc[name] = getattr(result, name)
        doc["environment"] = environment_fingerprint()
        return doc

    def merge(self, docs: Sequence[dict[str, Any]]) -> dict[str, Any]:
        """Reassemble one campaign report from its shard reports.

        The shards must cover one campaign exactly: same base config, one
        report per ``shard_index`` in ``0..shard_count-1``.  The merged
        report carries the unsharded config (``0/1``); ``ok`` is the AND
        of the shards, numbers sum, counter blocks (``solver``, ``flow``)
        merge through :func:`repro.obs.merge`, lists concatenate in shard
        order with failure records sorted by campaign index, and
        ``schema_version``/``kind``/``environment`` come from shard 0.
        Apart from the volatile keys it equals the unsharded report.
        """
        kind = f"{self.kind}-report"
        if not docs:
            raise ValueError(f"no {kind}s to merge")
        for doc in docs:
            if doc.get("kind") != kind:
                raise ValueError(
                    f"cannot merge {doc.get('kind')!r}: not a {kind}"
                )
            if doc.keys() != docs[0].keys():
                raise ValueError(f"{kind}s to merge have different keys")
        unsharded = [
            {**doc["config"], "shard_index": 0, "shard_count": 1}
            for doc in docs
        ]
        if any(config != unsharded[0] for config in unsharded):
            raise ValueError(
                f"cannot merge {kind}s from different campaign configs"
            )
        docs = sorted(docs, key=lambda doc: doc["config"]["shard_index"])
        shards = [
            (doc["config"]["shard_index"], doc["config"]["shard_count"])
            for doc in docs
        ]
        if shards != [(i, len(docs)) for i in range(len(docs))]:
            raise ValueError(
                f"shard reports do not partition the campaign: have "
                f"(shard_index, shard_count) pairs {shards}"
            )
        merged: dict[str, Any] = {}
        for key, first in docs[0].items():
            values = [doc[key] for doc in docs]
            if key == "config":
                merged[key] = unsharded[0]
            elif key in _FIRST_SHARD_KEYS:
                merged[key] = first
            elif isinstance(first, bool):
                merged[key] = all(values)
            elif isinstance(first, (int, float)):
                merged[key] = sum(values)
            elif isinstance(first, dict):
                merged[key] = obs.merge({}, *values)
            else:
                items = [item for value in values for item in value]
                if items and isinstance(items[0], dict):
                    items.sort(key=lambda record: record[self.index_key])
                merged[key] = items
        return merged

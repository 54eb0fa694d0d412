"""Append-only, content-addressed instance corpus.

A *corpus* is a directory holding a persistent set of instances that
batteries and fuzz campaigns stream instead of regenerating:

``corpus.jsonl``
    One JSON object per line, append-only.  Each entry carries its key
    ``(family, seed, index)``, the instance in the stable
    :func:`repro.instances.io.instance_to_dict` form, and the SHA-256 of
    the instance's canonical JSON — so any byte flip in an entry is
    detected at read time and two corpora can be compared by content
    without parsing instances.
``manifest.json``
    Schema version, entry count, per-family mix, and free-form builder
    metadata (campaign seed, generator caps).  Rewritten on every
    writer close; the entries file is never rewritten.

The reader is a generator: a million-instance corpus is consumed one
line at a time and never materialized.  Shard ``(i, n)`` selects the
entries whose ordinal satisfies ``offset % n == i``, so the union of the
``n`` shards is exactly the unsharded stream and the shards are disjoint
— the contract CI's sharded fuzz matrix relies on.

Corruption (truncated tail, bad JSON, hash mismatch, key drift) raises
:class:`~repro.util.errors.CorpusError` with the offending offset, never
a bare ``json`` or ``KeyError`` crash.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.instances.io import instance_from_dict, instance_to_dict
from repro.instances.jobs import Instance
from repro.util.errors import CorpusError
from repro.util.seeds import check_shard

#: Bumped when the entry/manifest layout changes incompatibly.
CORPUS_SCHEMA_VERSION = 1

MANIFEST_NAME = "manifest.json"
ENTRIES_NAME = "corpus.jsonl"


def canonical_json(doc: dict[str, Any]) -> str:
    """The canonical (sorted-key, compact) JSON form used for hashing.

    Stable across Python versions and platforms, so content digests are
    portable and an append→stream round trip is byte-identical.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def content_digest(doc: dict[str, Any]) -> str:
    """SHA-256 hex digest of a document's canonical JSON."""
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CorpusKey:
    """Identity of one corpus entry: generator family + derived seed + index.

    ``seed`` is the *derived* per-instance seed
    (:func:`repro.util.seeds.derive_seed` of the campaign seed and
    ``index``), so the key alone regenerates the instance.
    """

    family: str
    seed: int
    index: int


@dataclass(frozen=True)
class CorpusEntry:
    """One streamed entry: key, content digest, instance document, offset."""

    key: CorpusKey
    digest: str
    doc: dict[str, Any]
    offset: int

    def instance(self) -> Instance:
        """Decode the stored document back into an :class:`Instance`."""
        return instance_from_dict(self.doc)


def _entry_line(key: CorpusKey, doc: dict[str, Any], digest: str) -> str:
    record = {
        "v": CORPUS_SCHEMA_VERSION,
        "family": key.family,
        "seed": key.seed,
        "index": key.index,
        "sha256": digest,
        "instance": doc,
    }
    return canonical_json(record)


class CorpusWriter:
    """Append instances to a corpus directory; context manager.

    Opening an existing corpus continues it (append-only growth); the
    manifest is rewritten on :meth:`close` with updated counts.  ``meta``
    entries are merged into the manifest's free-form metadata block.
    """

    def __init__(
        self, path: str | Path, *, meta: dict[str, Any] | None = None
    ) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self._families: dict[str, int] = {}
        self._entries = 0
        self._meta: dict[str, Any] = {}
        manifest_path = self.path / MANIFEST_NAME
        if manifest_path.exists():
            manifest = read_manifest(self.path)
            self._entries = manifest["entries"]
            self._families = dict(manifest["families"])
            self._meta = dict(manifest.get("meta", {}))
        if meta:
            self._meta.update(meta)
        self._fh = (self.path / ENTRIES_NAME).open("a", encoding="utf-8")

    def append(
        self, family: str, seed: int, index: int, instance: Instance
    ) -> CorpusEntry:
        """Append one instance; returns the entry (with its digest)."""
        if self._fh.closed:
            raise CorpusError(
                "corpus writer is closed", path=str(self.path)
            )
        key = CorpusKey(family=family, seed=seed, index=index)
        doc = instance_to_dict(instance)
        digest = content_digest(doc)
        self._fh.write(_entry_line(key, doc, digest) + "\n")
        entry = CorpusEntry(
            key=key, digest=digest, doc=doc, offset=self._entries
        )
        self._entries += 1
        self._families[family] = self._families.get(family, 0) + 1
        return entry

    def close(self) -> dict[str, Any]:
        """Flush entries and (re)write the manifest; returns it."""
        if not self._fh.closed:
            self._fh.close()
        manifest = {
            "schema_version": CORPUS_SCHEMA_VERSION,
            "entries": self._entries,
            "families": dict(sorted(self._families.items())),
            "meta": self._meta,
        }
        (self.path / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        return manifest

    def __enter__(self) -> "CorpusWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def read_manifest(path: str | Path) -> dict[str, Any]:
    """Load and validate a corpus manifest."""
    manifest_path = Path(path) / MANIFEST_NAME
    if not manifest_path.exists():
        raise CorpusError(
            f"no corpus manifest at {manifest_path}", path=str(path)
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise CorpusError(
            f"corpus manifest at {manifest_path} is not valid JSON: {exc}",
            path=str(path),
        ) from exc
    if not isinstance(manifest, dict) or "entries" not in manifest:
        raise CorpusError(
            f"corpus manifest at {manifest_path} is malformed",
            path=str(path),
        )
    version = manifest.get("schema_version")
    if version != CORPUS_SCHEMA_VERSION:
        raise CorpusError(
            f"corpus schema version {version!r} unsupported "
            f"(expected {CORPUS_SCHEMA_VERSION})",
            path=str(path),
        )
    manifest.setdefault("families", {})
    manifest.setdefault("meta", {})
    return manifest


def parse_shard(spec: str) -> tuple[int, int]:
    """Parse an ``"i/n"`` shard spec into ``(index, count)``."""
    try:
        index_text, count_text = spec.split("/")
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise CorpusError(
            f"shard spec {spec!r} must look like 'i/n' (e.g. '0/3')"
        ) from None
    check_shard(index, count, CorpusError)
    return index, count


def iter_corpus(
    path: str | Path,
    *,
    shard: tuple[int, int] | None = None,
    verify_digests: bool = True,
    limit: int | None = None,
) -> Iterator[CorpusEntry]:
    """Stream a corpus's entries in append order, one line at a time.

    ``shard=(i, n)`` yields only entries with ``offset % n == i`` (the
    ``limit`` cap, when given, applies to the *unsharded* offsets, so
    shards of a ``limit``-truncated stream still partition it exactly).
    With ``verify_digests`` every entry's payload is re-hashed against
    its recorded SHA-256 — corruption raises :class:`CorpusError` at the
    offending offset instead of flowing bad data into a campaign.
    """
    corpus_dir = Path(path)
    entries_path = corpus_dir / ENTRIES_NAME
    manifest = read_manifest(corpus_dir)
    if not entries_path.exists():
        raise CorpusError(
            f"corpus entries file missing: {entries_path}",
            path=str(corpus_dir),
        )
    if shard is not None:
        check_shard(*shard, CorpusError)
    expected = manifest["entries"]
    offset = 0
    with entries_path.open("r", encoding="utf-8") as fh:
        for raw in fh:
            if limit is not None and offset >= limit:
                return
            line = raw.strip()
            if not line:
                continue
            if not raw.endswith("\n"):
                raise CorpusError(
                    f"corpus entry at offset {offset} is truncated "
                    "(no trailing newline — interrupted append?)",
                    path=str(entries_path),
                    offset=offset,
                )
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(
                    f"corpus entry at offset {offset} is not valid JSON: "
                    f"{exc}",
                    path=str(entries_path),
                    offset=offset,
                ) from exc
            entry = _decode_record(record, offset, entries_path)
            if verify_digests and content_digest(entry.doc) != entry.digest:
                raise CorpusError(
                    f"corpus entry at offset {offset} fails its content "
                    f"hash (recorded {entry.digest[:12]}…) — corrupted "
                    "or hand-edited entry",
                    path=str(entries_path),
                    offset=offset,
                )
            if shard is None or offset % shard[1] == shard[0]:
                yield entry
            offset += 1
    if limit is None and offset < expected:
        raise CorpusError(
            f"corpus holds {offset} entries but its manifest promises "
            f"{expected} — truncated entries file",
            path=str(entries_path),
            offset=offset,
        )


def _decode_record(
    record: Any, offset: int, entries_path: Path
) -> CorpusEntry:
    try:
        if record["v"] != CORPUS_SCHEMA_VERSION:
            raise CorpusError(
                f"corpus entry at offset {offset} has schema version "
                f"{record['v']!r} (expected {CORPUS_SCHEMA_VERSION})",
                path=str(entries_path),
                offset=offset,
            )
        key = CorpusKey(
            family=str(record["family"]),
            seed=int(record["seed"]),
            index=int(record["index"]),
        )
        doc = record["instance"]
        digest = str(record["sha256"])
        if not isinstance(doc, dict):
            raise TypeError("instance payload must be an object")
    except CorpusError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CorpusError(
            f"corpus entry at offset {offset} is malformed: {exc}",
            path=str(entries_path),
            offset=offset,
        ) from exc
    return CorpusEntry(key=key, digest=digest, doc=doc, offset=offset)


def corpus_stats(path: str | Path) -> dict[str, Any]:
    """Stream-verify a corpus and aggregate stats for ``corpus stat``.

    Walks every entry (validating digests), so a clean return certifies
    the corpus is readable end to end.
    """
    manifest = read_manifest(path)
    families: dict[str, int] = {}
    jobs = 0
    entries = 0
    digest_acc = hashlib.sha256()
    for entry in iter_corpus(path):
        entries += 1
        families[entry.key.family] = families.get(entry.key.family, 0) + 1
        jobs += len(entry.doc.get("jobs", ()))
        digest_acc.update(entry.digest.encode("ascii"))
    return {
        "path": str(path),
        "schema_version": manifest["schema_version"],
        "entries": entries,
        "families": dict(sorted(families.items())),
        "total_jobs": jobs,
        "corpus_digest": digest_acc.hexdigest(),
        "meta": manifest.get("meta", {}),
    }

"""The corpus substrate and corpus-scale fuzzing contracts.

Four guarantees this file pins down:

* **Round-trip** — every generator family (and handcrafted instances)
  survives corpus write → read with byte-identical canonical JSON and a
  stable content hash; corrupted or truncated entries raise a typed
  :class:`~repro.util.errors.CorpusError` instead of yielding garbage.
* **Seed derivation** — the frozen ``derive_seed`` formula shared by the
  fuzzer, the twin fuzzer and the corpus builder (first 16 derived seeds
  pinned for the CI campaign seeds 2022 and 7).
* **Shard determinism** — the union of shards ``0/3, 1/3, 2/3`` checks
  exactly the instances (and finds exactly the violations) of the
  unsharded campaign, and the merged shard report equals the unsharded
  one modulo volatile keys.
* **Resume** — a campaign killed mid-flight and resumed from its
  checkpoint produces the identical stable report.
"""

import json

import pytest

from repro.corpus import (
    CorpusError,
    CorpusWriter,
    build_fuzz_corpus,
    canonical_json,
    content_digest,
    corpus_stats,
    iter_corpus,
    parse_shard,
    read_manifest,
)
from repro.core import transform as transform_mod
from repro.instances.families import ALL_FAMILIES
from repro.instances.handcrafted import umbrella_groups
from repro.instances.io import instance_from_dict, instance_to_dict
from repro.util.seeds import SEED_MASK, SEED_STRIDE, derive_seed
from repro.verify.fuzz import (
    FuzzConfig,
    campaign_instances,
    fuzz_report_dict,
    load_checkpoint,
    merge_fuzz_reports,
    run_fuzz,
    sample_instance,
    stable_fuzz_report,
)

# ---------------------------------------------------------------------------
# Seed derivation (satellite: one shared helper, pinned values)
# ---------------------------------------------------------------------------


class TestSeedDerivation:
    # Frozen regression values: changing the formula silently remaps
    # every campaign index to a different instance, which would detach
    # existing corpora, checkpoints and committed counterexamples from
    # their seeds.  These are (campaign_seed * 1_000_003 + index) masked
    # to 31 bits, for the two campaign seeds CI pins.
    PINNED = {
        2022: [2022006066 + i for i in range(16)],
        7: [7000021 + i for i in range(16)],
    }

    @pytest.mark.parametrize("campaign_seed", sorted(PINNED))
    def test_first_16_derived_seeds_pinned(self, campaign_seed):
        assert [
            derive_seed(campaign_seed, i) for i in range(16)
        ] == self.PINNED[campaign_seed]

    def test_formula_constants_frozen(self):
        assert SEED_STRIDE == 1_000_003
        assert SEED_MASK == 0x7FFF_FFFF

    def test_stays_in_31_bits(self):
        for campaign_seed in (0, 7, 2022, 2**31 - 1, 2**40):
            for index in (0, 1, 999_999):
                derived = derive_seed(campaign_seed, index)
                assert 0 <= derived <= SEED_MASK

    def test_sampler_uses_derived_seed(self):
        # sample_instance(config, i) must be a pure function of the
        # derived seed: two configs whose derived seeds collide produce
        # the same instance for the colliding index.
        a = FuzzConfig(n_instances=1, seed=5, family="laminar")
        b = FuzzConfig(n_instances=1, seed=5, family="laminar")
        assert instance_to_dict(sample_instance(a, 3)) == instance_to_dict(
            sample_instance(b, 3)
        )

    def test_corpus_builder_keys_match_derivation(self, tmp_path):
        config = FuzzConfig(n_instances=6, seed=2022, max_jobs=8)
        build_fuzz_corpus(tmp_path / "c", config)
        for entry in iter_corpus(tmp_path / "c"):
            assert entry.key.seed == derive_seed(2022, entry.key.index)


# ---------------------------------------------------------------------------
# Corpus round-trip (satellite: every family, byte-identical JSON)
# ---------------------------------------------------------------------------


class TestCorpusRoundTrip:
    @pytest.mark.parametrize(
        "family", ["laminar", "general", "tight", "mixed"]
    )
    def test_generator_family_round_trips(self, family, tmp_path):
        config = FuzzConfig(
            n_instances=9, seed=2022, family=family, max_jobs=8
        )
        build_fuzz_corpus(tmp_path / "c", config)
        entries = list(iter_corpus(tmp_path / "c"))
        assert len(entries) == 9
        for entry in entries:
            regenerated = sample_instance(config, entry.key.index)
            # Byte-identical canonical JSON against regeneration …
            assert canonical_json(entry.doc) == canonical_json(
                instance_to_dict(regenerated)
            )
            # … stable content hash …
            assert content_digest(entry.doc) == entry.digest
            # … and a full materialize → serialize round-trip.
            assert canonical_json(
                instance_to_dict(entry.instance())
            ) == canonical_json(entry.doc)

    def test_handcrafted_instances_round_trip(self, tmp_path):
        crafted = [
            ALL_FAMILIES["section5_gap"](3),
            ALL_FAMILIES["natural_gap"](3),
            ALL_FAMILIES["rigid_chain"](3),
            ALL_FAMILIES["batched_groups"](3, 2),
            ALL_FAMILIES["greedy_trap"](3),
            ALL_FAMILIES["two_level"](3, 2),
            umbrella_groups(3, 2),
        ]
        with CorpusWriter(tmp_path / "c") as writer:
            digests = [
                writer.append("handcrafted", 0, i, inst).digest
                for i, inst in enumerate(crafted)
            ]
        entries = list(iter_corpus(tmp_path / "c"))
        assert [e.digest for e in entries] == digests
        for inst, entry in zip(crafted, entries):
            assert canonical_json(instance_to_dict(inst)) == canonical_json(
                entry.doc
            )
            assert instance_to_dict(entry.instance()) == entry.doc

    def test_rebuild_is_bit_identical(self, tmp_path):
        config = FuzzConfig(n_instances=12, seed=7, max_jobs=8)
        build_fuzz_corpus(tmp_path / "a", config)
        build_fuzz_corpus(tmp_path / "b", config)
        stats_a = corpus_stats(tmp_path / "a")
        stats_b = corpus_stats(tmp_path / "b")
        assert stats_a["corpus_digest"] == stats_b["corpus_digest"]
        assert (tmp_path / "a" / "corpus.jsonl").read_bytes() == (
            tmp_path / "b" / "corpus.jsonl"
        ).read_bytes()

    def test_append_only_growth(self, tmp_path):
        config = FuzzConfig(n_instances=4, seed=2022, max_jobs=8)
        build_fuzz_corpus(tmp_path / "c", config)
        with CorpusWriter(tmp_path / "c") as writer:
            writer.append(
                "laminar", derive_seed(2022, 4), 4, sample_instance(config, 4)
            )
        manifest = read_manifest(tmp_path / "c")
        assert manifest["entries"] == 5
        assert len(list(iter_corpus(tmp_path / "c"))) == 5


# ---------------------------------------------------------------------------
# Corrupted / truncated corpora fail loudly
# ---------------------------------------------------------------------------


def _entries_file(tmp_path):
    config = FuzzConfig(n_instances=5, seed=2022, max_jobs=8)
    build_fuzz_corpus(tmp_path / "c", config)
    return tmp_path / "c", tmp_path / "c" / "corpus.jsonl"


class TestCorpusErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CorpusError):
            read_manifest(tmp_path / "nowhere")

    def test_corrupted_entry_digest(self, tmp_path):
        corpus, entries = _entries_file(tmp_path)
        lines = entries.read_text().splitlines(keepends=True)
        lines[2] = lines[2].replace('"g":', '"g": 9, "junk":', 1)
        entries.write_text("".join(lines))
        with pytest.raises(CorpusError) as exc:
            list(iter_corpus(corpus))
        assert exc.value.offset == 2

    def test_truncated_final_entry(self, tmp_path):
        corpus, entries = _entries_file(tmp_path)
        raw = entries.read_bytes()
        entries.write_bytes(raw[:-10])  # chop mid-record, no newline
        with pytest.raises(CorpusError):
            list(iter_corpus(corpus))

    def test_garbage_line(self, tmp_path):
        corpus, entries = _entries_file(tmp_path)
        with entries.open("a") as fh:
            fh.write("{not json\n")
        with pytest.raises(CorpusError):
            list(iter_corpus(corpus))

    def test_manifest_count_drift(self, tmp_path):
        corpus, entries = _entries_file(tmp_path)
        manifest_path = corpus / "manifest.json"
        doc = json.loads(manifest_path.read_text())
        doc["entries"] = 99
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(CorpusError):
            list(iter_corpus(corpus))

    def test_schema_version_gate(self, tmp_path):
        corpus, _ = _entries_file(tmp_path)
        manifest_path = corpus / "manifest.json"
        doc = json.loads(manifest_path.read_text())
        doc["schema_version"] = 999
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(CorpusError):
            read_manifest(corpus)

    def test_campaign_mismatch_rejected(self, tmp_path):
        corpus, _ = _entries_file(tmp_path)
        config = FuzzConfig(
            n_instances=5, seed=2023, max_jobs=8, corpus=str(corpus)
        )
        with pytest.raises(CorpusError):
            list(campaign_instances(config))

    def test_parse_shard(self):
        assert parse_shard("0/1") == (0, 1)
        assert parse_shard("2/3") == (2, 3)
        for bad in ("3/3", "-1/3", "a/b", "1", "1/0"):
            with pytest.raises(CorpusError):
                parse_shard(bad)


# ---------------------------------------------------------------------------
# Shard determinism (satellite: union of shards == unsharded campaign)
# ---------------------------------------------------------------------------


def _drifting_push_down(forest, x, y):
    """Re-introduce the historical round() drift (see test_verify.py)."""
    tr = transform_mod.push_down(forest, x, y)
    for i in tr.topmost:
        for d in sorted(forest.strict_descendants(i)):
            length = forest.length[d]
            if length % 2 == 1 and abs(tr.x[d] - length) <= 1e-9:
                tr.x[d] -= 0.5
                return tr
    return tr


def _inject_round_bug(monkeypatch):
    monkeypatch.setattr(
        "repro.core.rounding._integral_off_I",
        lambda value, node: float(round(value)),
    )
    monkeypatch.setattr(
        "repro.core.algorithm.push_down", _drifting_push_down
    )


def _failure_fingerprints(result):
    """Multiset of (index, derived seed, violated properties) triples."""
    return sorted(
        (
            f.index,
            derive_seed(result.config.seed, f.index),
            tuple(sorted({v.prop for v in f.report.violations})),
        )
        for f in result.failures
    )


class TestShardDeterminism:
    @pytest.mark.parametrize("campaign_seed", [2022, 7])
    def test_shard_union_covers_campaign(self, campaign_seed, tmp_path):
        base = dict(n_instances=30, seed=campaign_seed, max_jobs=8)
        build_fuzz_corpus(
            tmp_path / "c", FuzzConfig(**base), progress=None
        )
        corpus = dict(base, corpus=str(tmp_path / "c"))

        def triples(**kw):
            return [
                (i, fam, canonical_json(instance_to_dict(inst)))
                for i, fam, inst in campaign_instances(FuzzConfig(**kw))
            ]

        unsharded = triples(**base)
        sharded = []
        for shard_index in range(3):
            sharded += triples(
                **corpus, shard_index=shard_index, shard_count=3
            )
        assert sorted(sharded) == sorted(unsharded)
        # The corpus-backed unsharded stream is also identical.
        assert triples(**corpus) == unsharded

    @pytest.mark.parametrize("campaign_seed", [2022, 7])
    def test_shard_violations_match_unsharded(
        self, campaign_seed, monkeypatch
    ):
        _inject_round_bug(monkeypatch)
        base = dict(
            n_instances=25,
            seed=campaign_seed,
            family="laminar",
            max_jobs=7,
            exact_max_jobs=5,
            shrink=False,
        )
        unsharded = run_fuzz(FuzzConfig(**base))
        assert unsharded.failures, "fault injection found nothing"
        shard_results = [
            run_fuzz(
                FuzzConfig(**base, shard_index=i, shard_count=3)
            )
            for i in range(3)
        ]
        merged_fingerprints = sorted(
            fp
            for res in shard_results
            for fp in _failure_fingerprints(res)
        )
        assert merged_fingerprints == _failure_fingerprints(unsharded)
        assert (
            sum(r.checked for r in shard_results) == unsharded.checked
        )
        assert sum(
            r.skipped_infeasible for r in shard_results
        ) == unsharded.skipped_infeasible
        # And the report-level merge is equal modulo volatile keys.
        merged = merge_fuzz_reports(
            [fuzz_report_dict(r) for r in shard_results]
        )
        assert stable_fuzz_report(merged) == stable_fuzz_report(
            fuzz_report_dict(unsharded)
        )

    def test_merge_rejects_partial_cover(self, monkeypatch):
        base = dict(n_instances=9, seed=2022, max_jobs=7)
        docs = [
            fuzz_report_dict(
                run_fuzz(FuzzConfig(**base, shard_index=i, shard_count=3))
            )
            for i in (0, 2)  # shard 1 missing
        ]
        with pytest.raises(ValueError):
            merge_fuzz_reports(docs)


# ---------------------------------------------------------------------------
# Resume (satellite: kill mid-campaign, resume to the identical result)
# ---------------------------------------------------------------------------


class _KillAt:
    """Wrap the oracle; raise once the Nth verification is reached."""

    def __init__(self, kill_at):
        self.kill_at = kill_at
        self.calls = 0

    def __call__(self, instance, **kwargs):
        from repro.verify.oracle import verify_instance

        self.calls += 1
        if self.calls == self.kill_at:
            raise RuntimeError("simulated mid-campaign kill")
        return verify_instance(instance, **kwargs)


class TestResume:
    def _config(self, **overrides):
        base = dict(
            n_instances=24,
            seed=2022,
            family="laminar",
            max_jobs=7,
            exact_max_jobs=5,
            shrink=False,
        )
        base.update(overrides)
        return FuzzConfig(**base)

    def test_resume_after_kill_reproduces_result(
        self, tmp_path, monkeypatch
    ):
        _inject_round_bug(monkeypatch)
        config = self._config()
        reference = run_fuzz(config)
        assert reference.failures, "fault injection found nothing"

        checkpoint = tmp_path / "campaign.ckpt.json"
        with pytest.raises(RuntimeError):
            run_fuzz(
                config,
                verify=_KillAt(17),
                checkpoint=checkpoint,
                checkpoint_every=5,
            )
        state = load_checkpoint(checkpoint, config)
        assert state is not None and not state["done"]
        assert 0 < state["next_index"] < config.n_instances

        resumed = run_fuzz(
            config, checkpoint=checkpoint, checkpoint_every=5
        )
        assert stable_fuzz_report(
            fuzz_report_dict(resumed)
        ) == stable_fuzz_report(fuzz_report_dict(reference))
        assert load_checkpoint(checkpoint, config)["done"]

    def test_completed_checkpoint_short_circuits(
        self, tmp_path, monkeypatch
    ):
        _inject_round_bug(monkeypatch)
        config = self._config(n_instances=12)
        checkpoint = tmp_path / "done.ckpt.json"
        first = run_fuzz(config, checkpoint=checkpoint)
        again = run_fuzz(config, checkpoint=checkpoint)
        assert stable_fuzz_report(
            fuzz_report_dict(again)
        ) == stable_fuzz_report(fuzz_report_dict(first))

    def test_checkpoint_config_mismatch_rejected(self, tmp_path):
        config = self._config(n_instances=6)
        checkpoint = tmp_path / "c.json"
        run_fuzz(config, checkpoint=checkpoint)
        other = self._config(n_instances=6, seed=7)
        with pytest.raises(ValueError):
            load_checkpoint(checkpoint, other)

    def test_corpus_backed_resume_matches_regenerating(
        self, tmp_path, monkeypatch
    ):
        _inject_round_bug(monkeypatch)
        config = self._config()
        build_fuzz_corpus(
            tmp_path / "c",
            FuzzConfig(
                n_instances=config.n_instances,
                seed=config.seed,
                family=config.family,
                max_jobs=config.max_jobs,
            ),
        )
        corpus_config = self._config(corpus=str(tmp_path / "c"))
        checkpoint = tmp_path / "corpus.ckpt.json"
        with pytest.raises(RuntimeError):
            run_fuzz(
                corpus_config,
                verify=_KillAt(11),
                checkpoint=checkpoint,
                checkpoint_every=5,
            )
        resumed = run_fuzz(corpus_config, checkpoint=checkpoint)
        reference = run_fuzz(config)
        # Same instances, same failures; configs differ only in the
        # corpus/shard block, so compare everything else.
        left = stable_fuzz_report(fuzz_report_dict(resumed))
        right = stable_fuzz_report(fuzz_report_dict(reference))
        assert left.pop("config")["corpus"] is not None
        right.pop("config")
        assert left == right

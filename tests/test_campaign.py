"""The campaign engine's contracts, once for every campaign kind.

Instance fuzzing and twin replay fuzzing both run on
:mod:`repro.verify.campaign`; each test here runs against both.  Faults
are injected deterministically per item, so every campaign has failure
records for shards, merges and resumes to carry:

* **Shards** — the merged report of shards ``0/3, 1/3, 2/3`` equals the
  unsharded report modulo volatile keys;
* **Merge** — a missing shard, a duplicated shard or mixed base configs
  are refused;
* **Resume** — a campaign killed mid-flight and resumed from its
  checkpoint gives the uninterrupted run's stable report;
* **Checkpoint gate** — a checkpoint from another config, an old schema
  version or non-JSON content is refused with :class:`ValueError`.
"""

import json
from dataclasses import replace

import pytest

import repro.verify.fuzz as fuzz
from repro.simulate.machine import BatchMachine
from repro.util.errors import InvalidInstanceError
from repro.verify.campaign import CHECKPOINT_SCHEMA_VERSION
from repro.verify.oracle import OracleReport, verify_instance
from repro.verify.properties import Violation


def _faulty_verify(instance, **kwargs):
    """The oracle, plus an injected violation on every odd-sized instance."""
    report = verify_instance(instance, **kwargs)
    if report.status == "ok" and instance.n % 2:
        return OracleReport(
            instance, "violation", [Violation("injected", f"n={instance.n}")]
        )
    return report


class InstanceFuzz:
    campaign = fuzz.FUZZ_CAMPAIGN
    item_source = "sample_instance"
    config = fuzz.FuzzConfig(
        n_instances=12,
        seed=2022,
        family="laminar",
        max_jobs=6,
        exact_max_jobs=5,
        shrink=False,
    )
    report = staticmethod(fuzz.fuzz_report_dict)

    @staticmethod
    def inject_faults(monkeypatch):
        pass  # run() always passes the faulty oracle

    @staticmethod
    def run(config, **kwargs):
        return fuzz.run_fuzz(config, verify=_faulty_verify, **kwargs)


class TwinFuzz:
    campaign = fuzz.TWIN_FUZZ_CAMPAIGN
    item_source = "twin_trace_for"
    config = fuzz.TwinFuzzConfig(n_traces=9, n_events=20, seed=2022)
    report = staticmethod(fuzz.twin_fuzz_report_dict)

    @staticmethod
    def inject_faults(monkeypatch):
        """Fail the machine audit of every trace with an even capacity."""
        audit = BatchMachine.audit_twin

        def faulty_audit(machine, session):
            if machine.g % 2 == 0:
                raise InvalidInstanceError(f"injected at g={machine.g}")
            return audit(machine, session)

        monkeypatch.setattr(BatchMachine, "audit_twin", faulty_audit)

    @staticmethod
    def run(config, **kwargs):
        return fuzz.run_twin_fuzz(config, **kwargs)


@pytest.fixture(params=[InstanceFuzz, TwinFuzz], ids=["fuzz", "twin-fuzz"])
def kind(request, monkeypatch):
    request.param.inject_faults(monkeypatch)
    return request.param


def _stable(kind, result):
    return fuzz.stable_fuzz_report(kind.report(result))


def _shard_reports(kind, config):
    return [
        kind.report(kind.run(replace(config, shard_index=i, shard_count=3)))
        for i in range(3)
    ]


def _kill_after(monkeypatch, kind, produced):
    """Make the campaign's item source raise once ``produced`` items exist."""
    source = getattr(fuzz, kind.item_source)
    calls = [0]

    def dying(*args):
        calls[0] += 1
        if calls[0] > produced:
            raise RuntimeError("simulated mid-campaign kill")
        return source(*args)

    monkeypatch.setattr(fuzz, kind.item_source, dying)


def test_shard_union_equals_unsharded(kind):
    unsharded = kind.run(kind.config)
    assert not unsharded.ok, "fault injection found nothing"
    merged = kind.campaign.merge(_shard_reports(kind, kind.config))
    assert merged["config"] == kind.report(unsharded)["config"]
    assert fuzz.stable_fuzz_report(merged) == _stable(kind, unsharded)


@pytest.mark.parametrize("defect", ["missing", "duplicated", "mixed"])
def test_merge_rejects_bad_cover(kind, defect):
    docs = _shard_reports(kind, kind.config)
    if defect == "missing":
        docs = docs[:2]
    elif defect == "duplicated":
        docs.append(docs[0])
    else:
        other = replace(kind.config, seed=7, shard_index=1, shard_count=3)
        docs[1] = kind.report(kind.run(other))
    with pytest.raises(ValueError):
        kind.campaign.merge(docs)


def test_resume_after_kill_matches_uninterrupted(kind, tmp_path, monkeypatch):
    reference = kind.run(kind.config)
    assert not reference.ok, "fault injection found nothing"
    checkpoint = tmp_path / "campaign.ckpt.json"
    with monkeypatch.context() as patch:
        _kill_after(patch, kind, produced=7)
        with pytest.raises(RuntimeError):
            kind.run(kind.config, checkpoint=checkpoint, checkpoint_every=2)
    state = kind.campaign.load_checkpoint(checkpoint, kind.config)
    assert not state["done"] and state["next_index"] == 6
    assert state["failure_indices"], "no failure recorded before the kill"

    resumed = kind.run(kind.config, checkpoint=checkpoint, checkpoint_every=2)
    assert _stable(kind, resumed) == _stable(kind, reference)
    assert kind.campaign.load_checkpoint(checkpoint, kind.config)["done"]


def _old_schema(doc):
    doc["schema_version"] = CHECKPOINT_SCHEMA_VERSION - 1
    return json.dumps(doc)


@pytest.mark.parametrize(
    "corrupt, same_config",
    [
        pytest.param(json.dumps, False, id="other-config"),
        pytest.param(_old_schema, True, id="old-schema"),
        pytest.param(lambda doc: "{not json", True, id="not-json"),
        pytest.param(lambda doc: "[]", True, id="not-an-object"),
    ],
)
def test_foreign_checkpoint_rejected(kind, tmp_path, corrupt, same_config):
    checkpoint = tmp_path / "c.json"
    written = replace(kind.config, seed=7)
    kind.run(written, checkpoint=checkpoint)
    checkpoint.write_text(corrupt(json.loads(checkpoint.read_text())))
    with pytest.raises(ValueError):
        kind.run(written if same_config else kind.config, checkpoint=checkpoint)


def test_checkpoint_with_a_backend_field_is_refused(tmp_path):
    """A fuzz checkpoint from before ``FuzzConfig.backend`` was dropped
    (schema 2, ``"backend": null`` in its config) is refused by version,
    with the error that says how to start over."""
    checkpoint = tmp_path / "c.json"
    config = InstanceFuzz.config
    InstanceFuzz.run(config, checkpoint=checkpoint)
    doc = json.loads(checkpoint.read_text())
    assert "backend" not in doc["config"]
    doc["schema_version"] = 2
    doc["config"]["backend"] = None
    checkpoint.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="delete it to start over") as exc:
        InstanceFuzz.run(config, checkpoint=checkpoint)
    assert "schema version 2" in str(exc.value)

"""Byte-identity of the 9/5 pipeline on the laminar smoke-corpus instances.

``tests/pipeline_digests.json`` holds, per laminar instance of
``data/corpus_smoke`` (keyed by its offset) and per planted instance at
the ``batch-dense`` benchmark's sizes (keyed ``planted-<n>``; these have
wide nodes to binarize and mass to push down), the first 128 bits of the
sha256 digests of:

* the compiled LP (1): costs, column bounds and both CSR row blocks with
  their right-hand sides (``LinearProgram.compile``);
* ``lp_value``;
* the rounded ``x̃``;
* the schedule's per-job runs.

``planted-1600`` (g = 8) is one where HiGHS's dual simplex stops at
another optimal vertex when the model is scaled, so a change to the
solver options moves its ``x̃`` and runs.

A change to how the pipeline computes (array layouts, loop orders, float
summation) must leave all four unchanged.  Regenerate the file only for a
change meant to move an output::

    PYTHONPATH=src python tests/test_pipeline_digests.py --write
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from repro.core.algorithm import solve_nested
from repro.corpus import iter_corpus
from repro.instances.io import instance_from_dict
from repro.lp.nested_lp import build_nested_lp

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "data" / "corpus_smoke"
DIGESTS = Path(__file__).resolve().parent / "pipeline_digests.json"


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()[:32]


def _array_bytes(a) -> bytes:
    if a is None:
        return b"none"
    return np.ascontiguousarray(a).tobytes()


def _csr_bytes(mat) -> list[bytes]:
    if mat is None:
        return [b"none"]
    return [
        repr(mat.shape).encode(),
        _array_bytes(mat.indptr.astype(np.int64)),
        _array_bytes(mat.indices.astype(np.int64)),
        _array_bytes(mat.data.astype(float)),
    ]


def pipeline_digests(inst) -> dict[str, str]:
    """The four digests of one laminar instance."""
    result = solve_nested(inst)
    parts = build_nested_lp(result.canonical)[0].compile()
    lp = _sha(
        _array_bytes(parts["c"]),
        _array_bytes(parts["bounds"]),
        *_csr_bytes(parts["A_ub"]),
        _array_bytes(parts["b_ub"]),
        *_csr_bytes(parts["A_eq"]),
        _array_bytes(parts["b_eq"]),
    )
    runs = result.schedule.runs
    return {
        "lp": lp,
        "lp_value": _sha(repr(float(result.lp_value)).encode()),
        "x_tilde": _sha(_array_bytes(result.rounding.x_tilde.astype(float))),
        "runs": _sha(repr(sorted(runs.items())).encode()),
    }


def _planted(n: int, g: int, seed: int):
    spec = importlib.util.spec_from_file_location("planted", ROOT / "perfbench" / "planted.py")
    planted = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(planted)
    doc = planted.planted_instance(seed, n=n, horizon=3 * n, g=g, windows=n // 4, p_max=3)
    return instance_from_dict(doc)


def corpus_digests() -> dict[str, dict[str, str]]:
    out: dict[str, dict[str, str]] = {}
    for entry in iter_corpus(CORPUS):
        inst = entry.instance()
        if inst.is_laminar:
            out[str(entry.offset)] = pipeline_digests(inst)
    for seed, (n, g) in enumerate(((300, 2), (700, 4), (1200, 8), (1600, 8))):
        out[f"planted-{n}"] = pipeline_digests(_planted(n, g, seed))
    return out


def test_pipeline_is_byte_identical_on_the_corpus():
    expected = json.loads(DIGESTS.read_text())
    got = corpus_digests()
    assert len(got) == 347 + 4
    assert got.keys() == expected.keys()
    moved = {
        key: [part for part in got[key] if got[key][part] != expected[key][part]]
        for key in got
    }
    moved = {key: parts for key, parts in moved.items() if parts}
    assert not moved, f"{len(moved)} instances changed, e.g. {next(iter(moved.items()))}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    lines = [f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in corpus_digests().items()]
    DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")

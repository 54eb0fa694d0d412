"""Regenerate docs/API.md from the package __all__ exports.

Run from the repository root:  python scripts/gen_api_docs.py
"""

import importlib
import inspect
import io
from pathlib import Path

PACKAGES = [
    "repro", "repro.instances", "repro.tree", "repro.flow", "repro.lp",
    "repro.solver", "repro.obs", "repro.core", "repro.baselines",
    "repro.hardness", "repro.analysis", "repro.corpus", "repro.simulate",
    "repro.twin", "repro.multiinterval", "repro.online", "repro.policies",
    "repro.busytime", "repro.verify", "repro.service", "repro.util",
]


def generate() -> str:
    out = io.StringIO()
    out.write(
        "# API index\n\nGenerated from the package `__all__` exports "
        "(`python scripts/gen_api_docs.py` regenerates this file).\n"
    )
    for name in PACKAGES:
        mod = importlib.import_module(name)
        exports = getattr(mod, "__all__", [])
        if not exports:
            continue
        doc = (mod.__doc__ or "").strip().splitlines()[0]
        out.write(f"\n## `{name}`\n\n{doc}\n\n")
        for item in exports:
            obj = getattr(mod, item)
            kind = (
                "class"
                if inspect.isclass(obj)
                else ("function" if callable(obj) else "value")
            )
            summary = ""
            if getattr(obj, "__doc__", None):
                summary = obj.__doc__.strip().splitlines()[0]
            out.write(f"* **`{item}`** ({kind}) — {summary}\n")
    return out.getvalue()


if __name__ == "__main__":
    target = Path(__file__).resolve().parent.parent / "docs" / "API.md"
    target.write_text(generate())
    print(f"wrote {target}")

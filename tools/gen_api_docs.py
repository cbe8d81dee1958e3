"""Generate docs/api.md from the public surface of the repro packages.

Deterministic introspection: walks each package's ``__all__``, emits one
section per exported name with its signature and docstring summary, and one
row per public method. Re-run after changing the public API:

    PYTHONPATH=src python tools/gen_api_docs.py

CI's docs job regenerates the file and fails when the committed copy is
stale (``--check``).
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
from pathlib import Path

PACKAGES = [
    "repro.runtime",
    "repro.serve",
    "repro.adapt",
    "repro.obs",
]
OUT_PATH = Path(__file__).resolve().parent.parent / "docs" / "api.md"

HEADER = """\
# Public API: `repro.runtime`, `repro.serve`, `repro.adapt` and `repro.obs`

<!-- Generated by tools/gen_api_docs.py; do not edit by hand.
     Regenerate with: PYTHONPATH=src python tools/gen_api_docs.py -->

One section per exported name (each package's `__all__`), with the
docstring summary line of every public method. Full signatures and
semantics (Args/Returns/Raises) live in the docstrings themselves --
`help(repro.runtime.PassManager)`, `help(repro.serve.ModelRepository)` et al.
"""


def _summary(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    first = doc.strip().split("\n", 1)[0].strip()
    return first


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _method_rows(cls) -> list:
    rows = []
    for name, member in sorted(vars(cls).items()):
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            rows.append(f"- `{name}` *(property)* — {_summary(member.fget)}")
        elif inspect.isfunction(member):
            rows.append(f"- `{name}{_signature(member)}` — {_summary(member)}")
        elif isinstance(member, (classmethod, staticmethod)):
            func = member.__func__
            rows.append(f"- `{name}{_signature(func)}` — {_summary(func)}")
    return rows


def _dataclass_fields(cls) -> list:
    import dataclasses

    if not dataclasses.is_dataclass(cls):
        return []
    names = ", ".join(f.name for f in dataclasses.fields(cls))
    return [f"*Fields:* `{names}`"]


def render() -> str:
    lines = [HEADER]
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        lines.append(f"\n## `{package_name}`\n")
        summary = _summary(package)
        if summary:
            lines.append(f"{summary}\n")
        for export_name in sorted(package.__all__):
            obj = getattr(package, export_name)
            if inspect.isclass(obj):
                lines.append(f"### `{export_name}`\n")
                lines.append(f"{_summary(obj)}\n")
                lines.extend(_dataclass_fields(obj))
                methods = _method_rows(obj)
                if methods:
                    lines.extend(methods)
                lines.append("")
            elif inspect.isfunction(obj):
                lines.append(f"### `{export_name}{_signature(obj)}`\n")
                lines.append(f"{_summary(obj)}\n")
            else:
                lines.append(f"### `{export_name}`\n")
                lines.append(f"Constant: `{export_name} = {obj!r}`\n")
    return "\n".join(lines).rstrip() + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if docs/api.md is out of date instead of rewriting it",
    )
    args = parser.parse_args()
    content = render()
    if args.check:
        current = OUT_PATH.read_text() if OUT_PATH.exists() else ""
        if current != content:
            print(
                "docs/api.md is stale; regenerate with "
                "PYTHONPATH=src python tools/gen_api_docs.py",
                file=sys.stderr,
            )
            return 1
        print("docs/api.md is up to date")
        return 0
    OUT_PATH.write_text(content)
    print(f"wrote {OUT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Line counts of the lcmswarm package by kind, and its function count.

Each line of each module under ROOT/src/lcmswarm is one kind:

- `blank`: empty or whitespace-only;
- `docstring`: any other line of a module, class or function docstring;
- `comment`: any other line that holds only a `#` comment;
- `code`: every other line.

`functions` counts `def` and `async def` statements, methods and nested
functions included, not lambdas.  The kinds of a module sum to its line
count, so a denser rewrite of the same code shows as what it is rather than
as a cut:

    python3 tools/src_lines.py                 # this checkout
    python3 tools/src_lines.py ../parent .     # both, and change minus parent

prints one JSON object: per root, each module's counts and their total, and
with two roots a `diff` of the second's totals minus the first's.
"""

from __future__ import annotations

import argparse
import ast
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KINDS = ("code", "comment", "docstring", "blank", "lines", "functions")


def module_counts(source: str) -> dict[str, int]:
    """The counts of one module's source."""
    tree = ast.parse(source)
    doc: set[int] = set()
    functions = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions += 1
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                doc.update(range(first.lineno, first.end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    for i, line in enumerate(source.splitlines(), 1):
        text = line.strip()
        kind = ("blank" if not text else "docstring" if i in doc
                else "comment" if text.startswith("#") else "code")
        counts[kind] += 1
        counts["lines"] += 1
    counts["functions"] = functions
    return counts


def package_counts(root: str) -> dict[str, dict[str, int]]:
    """Each module's counts under root/src/lcmswarm, by file name, and their `total`."""
    pkg = os.path.join(root, "src", "lcmswarm")
    out = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as f:
                out[name] = module_counts(f.read())
    out["total"] = {kind: sum(c[kind] for c in out.values()) for kind in KINDS}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("roots", nargs="*", default=[ROOT], metavar="ROOT",
                        help="a checkout holding src/lcmswarm (default: this one)")
    roots = parser.parse_args(argv).roots
    report = {root: package_counts(root) for root in roots}
    if len(roots) == 2:
        before, after = (report[root]["total"] for root in roots)
        report["diff"] = {kind: after[kind] - before[kind] for kind in KINDS}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

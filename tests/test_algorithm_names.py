"""No rule of the package branches on an algorithm's name.

Each algorithm's rules live in its record: `cli.ALGORITHMS` for every name,
`simulators.INDUCED` for the meta-simulators.  Outside those two tables, a
builder's own `Algorithm("<name>", ...)` call and a problem checker's name
(the problem sro shares the algorithm's name), no string literal in
src/lcmswarm may equal an algorithm name.
"""

import ast
import os

from lcmswarm.cli import ALGORITHMS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "lcmswarm")
TABLES = {"ALGORITHMS", "INDUCED"}


def _allowed(tree: ast.Module) -> set[int]:
    """The ids of the string constants that may name an algorithm."""
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            if names & TABLES:
                allowed.update(id(n) for n in ast.walk(node.value))
            elif "CHECKS" in names and isinstance(node.value, ast.Dict):
                allowed.update(id(key) for key, value in zip(node.value.keys, node.value.values)
                               if isinstance(value, ast.Call) and value.args
                               and isinstance(value.args[0], ast.Tuple) and not value.args[0].elts)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Algorithm" and node.args:
            allowed.add(id(node.args[0]))
    return allowed


def _named(source: str) -> tuple[list[tuple[int, str]], int]:
    """The (line, name) of each string literal that names an algorithm outside
    the allowed places, and how many inside them."""
    tree = ast.parse(source)
    allowed = _allowed(tree)
    found, kept = [], 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in ALGORITHMS:
            if id(node) in allowed:
                kept += 1
            else:
                found.append((node.lineno, node.value))
    return sorted(found), kept


def test_no_string_literal_outside_the_tables_names_an_algorithm():
    found, kept = {}, 0
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                lines, allowed = _named(fh.read())
            kept += allowed
            if lines:
                found[name] = lines
    assert found == {}
    # Every name is stated in the table and by its builder, so the walk saw them.
    assert kept >= 2 * len(ALGORITHMS)


def test_a_branch_on_a_name_is_found():
    source = 'CHECKS = {"sro": Check((), f), "p": Check(("stay",), g)}\nif algo == "sro":\n    pass\n'
    assert _named(source) == ([(1, "stay"), (2, "sro")], 1)

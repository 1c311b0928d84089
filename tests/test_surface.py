"""Every public name of the package has a caller in the package or the benchmark.

A module-level function, class or constant of src/zonosep or of a
subpackage of it (zonosep.cli and its group modules) whose name does
not start with "_", and a method or property of such a class whose name
does not either, must be referenced as code (a NAME token, not a string
or a comment) somewhere in src/zonosep, its subpackages or bench/
outside its own definition.  A method counts as called where its bare name occurs, on
whatever object.  Tests and demos do not count as callers: a name only
they use is a test oracle and belongs in tests/oracles.py, or is dead.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "zonosep"
CALLERS = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "bench").glob("*.py"))

# names kept without a caller, each with its reason
ALLOWED = {
    "membrane_from_ideal": "the public way to build one membrane, and the entry "
    "point to _replay, which the scan's witness check runs",
}


def _public_definitions() -> list[tuple[Path, str, str, int, int]]:
    """(module, reported name, bare name, first line, last line) of each
    public module-level name and each public method of a public class;
    a method is reported as Class.method."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            found += [
                (path, name, name, node.lineno, node.end_lineno)
                for name in names
                if not name.startswith("_")
            ]
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                found += [
                    (path, f"{node.name}.{member.name}", member.name,
                     member.lineno, member.end_lineno)
                    for member in node.body
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
                ]
    return found


def _references() -> dict[str, list[tuple[Path, int]]]:
    """Every NAME token in the callers, with its file and line."""
    refs: dict[str, list[tuple[Path, int]]] = {}
    for path in CALLERS:
        source = io.StringIO(path.read_text(encoding="utf-8"))
        for token in tokenize.generate_tokens(source.readline):
            if token.type == tokenize.NAME:
                refs.setdefault(token.string, []).append((path, token.start[0]))
    return refs


def _uncalled() -> set[str]:
    """The public names with no reference outside their own definition."""
    refs = _references()
    return {
        reported
        for path, reported, name, first, last in _public_definitions()
        if all(where == path and first <= line <= last for where, line in refs.get(name, ()))
    }


def test_every_public_name_has_a_caller():
    assert sorted(_uncalled() - ALLOWED.keys()) == []


def test_allowed_names_still_have_no_caller():
    assert ALLOWED.keys() <= _uncalled()

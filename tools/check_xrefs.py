#!/usr/bin/env python3
"""Check that Sphinx cross-references in ``src/`` docstrings name live code.

Scans every docstring (module, class and function) under ``src/`` for the
roles ``:func:``, ``:class:``, ``:meth:``, ``:attr:`` and ``:data:``, and
fails when a role names something ``src/`` no longer defines.  Defined
means a ``def``, a ``class``, a module- or class-level assignment, or a
``self.<name> =`` assignment anywhere under ``src/``.

A target may carry Sphinx decorations (``~``, ``!``, a leading ``.``, a
trailing ``()``, or ``title <target>``).  A dotted target is checked
component by component when it belongs to the project — it starts with
``repro`` (whose leading module path must exist) or with a class ``src/``
defines; other dotted names (``time.perf_counter``, ``np.ndarray``) and
``:mod:`` paths are exempt.  Exits non-zero listing every dangling
reference as ``path:line: :role:`target```.

Usage::

    python tools/check_xrefs.py [--src DIR]
    python tools/check_xrefs.py --selftest     # exercised in CI
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
import tempfile
from pathlib import Path

ROLE_PATTERN = re.compile(r":(func|class|meth|attr|data):`([^`]+)`")
PACKAGE = "repro"

REPO_ROOT = Path(__file__).resolve().parent.parent


def _target_names(node: ast.AST) -> list[str]:
    """Names bound by an assignment target (tuples unpacked)."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, (ast.Tuple, ast.List)):
        return [name for elt in node.elts for name in _target_names(elt)]
    return []


def _assigned(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, ast.Assign):
        return [name for target in stmt.targets for name in _target_names(target)]
    if isinstance(stmt, ast.AnnAssign):
        return _target_names(stmt.target)
    return []


def definitions(tree: ast.Module) -> tuple[set[str], set[str]]:
    """``(names, classes)`` one parsed module defines, under the rules above."""
    names: set[str] = set()
    classes: set[str] = set()
    scopes = [tree.body]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            classes.add(node.name)
            scopes.append(node.body)
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                names.add(target.attr)
    for body in scopes:
        for stmt in body:
            names.update(_assigned(stmt))
    return names, classes


def docstrings(tree: ast.Module):
    """``(first line, text)`` of every module, class and function docstring."""
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        if not (node.body and isinstance(node.body[0], ast.Expr)):
            continue
        value = node.body[0].value
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            yield value.lineno, value.value


def _bare(target: str) -> str:
    """The referenced name, without Sphinx's title and prefix decorations."""
    match = re.search(r"<([^>]+)>\s*$", target)
    if match:
        target = match.group(1)
    target = target.strip().lstrip("~!.")
    return target[:-2] if target.endswith("()") else target


def dangling(target: str, defined: set[str], classes: set[str], modules: set[str]) -> bool:
    """True when ``target`` names project code that no longer exists."""
    parts = _bare(target).split(".")
    if parts[0] == PACKAGE:
        # The longest leading module path, then the names inside it.
        for cut in range(len(parts), 0, -1):
            if ".".join(parts[:cut]) in modules:
                break
        rest = parts[cut:]
        if not rest:  # a module named through an object role
            return False
        return any(part not in defined for part in rest)
    if len(parts) > 1 and parts[0] not in classes:
        return False  # a dotted name outside the project
    return any(part not in defined for part in parts)


def scan(src: Path) -> list[str]:
    """``path:line: :role:`target``` for every dangling reference."""
    files = sorted(src.rglob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    defined: set[str] = set()
    classes: set[str] = set()
    modules: set[str] = set()
    for path, tree in trees.items():
        names, kinds = definitions(tree)
        defined |= names
        classes |= kinds
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules.add(".".join(parts))
    errors = []
    for path, tree in trees.items():
        for first_line, text in docstrings(tree):
            for match in ROLE_PATTERN.finditer(text):
                if dangling(match.group(2), defined, classes, modules):
                    line = first_line + text.count("\n", 0, match.start())
                    errors.append(f"{path}:{line}: {match.group(0)}")
    return errors


SELFTEST_MODULE = '''"""Module docstring: :func:`live`, :func:`gone_function`.

:class:`Live`, :meth:`Live.method`, :attr:`Live.field`,
:attr:`Live.slot`, :data:`CONSTANT`, :func:`~pkg.mod.live`,
:meth:`Live.gone_method`, :func:`time.perf_counter`, :mod:`pkg.gone`,
:func:`title <pkg.mod.live>`, :func:`live()`, :class:`pkg.gone.Live`,
:func:`numpy.random.default_rng`.
"""

CONSTANT = 1


def live():
    """:data:`LOCAL` is not module level: dangling."""
    LOCAL = 2
    return LOCAL


class Live:
    """:attr:`field` and :attr:`slot` are defined."""

    field: int = 0

    def __init__(self):
        self.slot = None

    def method(self):
        pass

    def numpy(self):
        """A method named like a module: ``numpy.*`` stays exempt."""
'''


def selftest() -> int:
    """Scan a synthetic tree whose dangling references are known."""
    global PACKAGE
    with tempfile.TemporaryDirectory() as tmp:
        package = Path(tmp) / "pkg"
        package.mkdir()
        (package / "__init__.py").write_text("")
        (package / "mod.py").write_text(SELFTEST_MODULE)
        saved, PACKAGE = PACKAGE, "pkg"
        try:
            errors = scan(Path(tmp))
        finally:
            PACKAGE = saved
    found = [error.split(": ", 1)[1] for error in errors]
    expected = [
        ":func:`gone_function`",
        ":meth:`Live.gone_method`",
        ":class:`pkg.gone.Live`",
        ":data:`LOCAL`",
    ]
    assert found == expected, found
    lines = [int(re.match(r".*?:(\d+): ", error).group(1)) for error in errors]
    assert lines == [1, 5, 6, 14], lines
    print(f"check_xrefs selftest: OK ({len(errors)} dangling references found)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", type=Path, default=REPO_ROOT / "src",
        help="source tree to scan (default: the repo's src/)",
    )
    parser.add_argument(
        "--selftest", action="store_true",
        help="check the scanner against a synthetic tree and exit",
    )
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    errors = scan(args.src)
    for error in errors:
        print(error)
    if errors:
        print(f"{len(errors)} dangling cross-reference(s)", file=sys.stderr)
        return 1
    print(f"All cross-references in {args.src} docstrings resolve.")
    return 0


if __name__ == "__main__":
    sys.exit(main())

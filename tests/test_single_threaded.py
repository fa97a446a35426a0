"""The library is single-threaded by contract.

One caller thread drives a pipeline (``serve_stream`` runs its stages in
one loop), so no module in ``src/repro`` may start threads or guard state
with locks.  The one exception is autograd's per-thread grad mode, which
keeps a caller's own threads from racing on one ``no_grad`` flag.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Modules whose import would bring threads or locks into the library.
FORBIDDEN = ("threading", "concurrent")

#: The one module allowed to import ``threading`` (per-thread grad mode).
ALLOWED = {Path("nn/autograd.py")}


def imported_modules(tree: ast.AST) -> list[str]:
    """Every absolute module name an ``import``/``from ... import`` names."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.append(node.module)
    return names


def forbidden_imports(source: str) -> list[str]:
    return [
        name for name in imported_modules(ast.parse(source))
        if name.split(".")[0] in FORBIDDEN
    ]


def test_scanner_sees_every_import_form():
    source = (
        "import threading\n"
        "import concurrent.futures as cf\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from concurrent import futures\n"
        "def f():\n"
        "    from threading import Lock\n"
        "from .threading_notes import x\n"
        "import threadpoolctl\n"
    )
    assert forbidden_imports(source) == [
        "threading", "concurrent.futures", "concurrent.futures",
        "concurrent", "threading",
    ]


def test_only_autograd_imports_threading():
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if relative in ALLOWED:
            continue
        found = forbidden_imports(path.read_text(encoding="utf-8"))
        if found:
            offenders[str(relative)] = found
    assert offenders == {}

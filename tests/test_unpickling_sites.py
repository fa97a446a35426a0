"""No new place in the library may unpickle a file.

Unpickling runs code named by the file, so an untrusted capture, shard or
checkpoint must never reach it.  This scan pins the sites that exist today
(the assembler checkpoint pair in ``serve/resilience.py`` and the two
corpus shard loads in ``corpus/packets.py``) and fails on any other.  When
a pinned site is removed, delete its entry: the pin only ever shrinks.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Modules whose import can unpickle data.
PICKLE_MODULES = ("pickle", "_pickle", "cPickle", "shelve", "dill", "cloudpickle")

#: Today's unpickling sites, per module relative to ``src/repro``.
PINNED = {
    "serve/resilience.py": ["import pickle"],
    "corpus/packets.py": ["allow_pickle=True", "allow_pickle=True"],
}


def unpickling_sites(source: str) -> list[str]:
    """Every pickle-family import, ``allow_pickle`` not passed as the
    constant False, and ``read_pickle`` call in ``source``."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module]
        else:
            names = []
        sites.extend(
            f"import {name}" for name in names
            if name.split(".")[0] in PICKLE_MODULES
        )
        if isinstance(node, ast.Call):
            for keyword in node.keywords:
                value = keyword.value
                if keyword.arg == "allow_pickle" and not (
                    isinstance(value, ast.Constant) and value.value is False
                ):
                    sites.append(f"allow_pickle={ast.unparse(value)}")
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "read_pickle":
                sites.append("read_pickle()")
    return sites


def test_scanner_sees_every_site_form():
    source = (
        "import pickle\n"
        "import pickle as pk\n"
        "from pickle import loads\n"
        "import _pickle, json\n"
        "def f(flag):\n"
        "    from shelve import open\n"
        "    np.load(path, allow_pickle=True)\n"
        "    np.load(path, allow_pickle=flag)\n"
        "    np.load(path, allow_pickle=False)\n"
        "    np.load(path)\n"
        "    return pd.read_pickle(path)\n"
        "from .pickle_notes import x\n"
        "import pickletools\n"
    )
    assert sorted(unpickling_sites(source)) == sorted([
        "import pickle", "import pickle", "import pickle", "import _pickle",
        "import shelve", "allow_pickle=True", "allow_pickle=flag",
        "read_pickle()",
    ])


def test_no_unpickling_site_beyond_the_pinned_ones():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        sites = unpickling_sites(path.read_text(encoding="utf-8"))
        if sites:
            found[path.relative_to(SRC).as_posix()] = sites
    assert {name: Counter(sites) for name, sites in found.items()} == {
        name: Counter(sites) for name, sites in PINNED.items()
    }

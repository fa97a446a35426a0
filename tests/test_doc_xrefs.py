"""Docstring cross-references in ``src/`` name code that still exists
(`tools/check_xrefs.py`, also run by the CI docs job)."""

from __future__ import annotations

from tools.check_xrefs import REPO_ROOT, scan, selftest


def test_scanner_finds_the_known_dangling_references():
    assert selftest() == 0


def test_src_docstrings_have_no_dangling_references():
    assert scan(REPO_ROOT / "src") == []

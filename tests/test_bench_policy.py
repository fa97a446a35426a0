"""The benchmark gate-floor margin policy (`tools.bench_report.gate_floor`).

Gate floors used to be hand-set constants, which made them drift traps: a
gate recorded at 6.2x with a 5.0 floor would flip red on a 4.95x run — a
one-percent-of-margin scheduling hiccup, not a regression.  The policy ties
each full-size floor to a *trailing measurement* times a configured margin,
so a gate only fails when it loses a meaningful fraction of its recorded
speedup.  These tests pin the policy's arithmetic, its fallbacks, and the
well-formedness of the repo's trailing database.
"""

from __future__ import annotations

import json

import pytest

from tools.bench_report import (
    DEFAULT_MARGIN,
    TRAILING_PATH,
    gate_floor,
    load_trailing,
)


def db(**gates):
    return {"gates": {name: entry for name, entry in gates.items()}}


class TestGateFloor:
    def test_floor_is_trailing_times_margin(self):
        database = db(columnar_generation={"trailing": 6.0, "margin": 0.75})
        assert gate_floor("columnar_generation", 5.0, trailing=database) == 4.5

    def test_small_drift_cannot_flip_a_gate(self):
        # The scenario that motivated the policy: trailing 6.2x, and a run
        # lands at 4.95x-style drift (here: a few percent down).  Any drift
        # smaller than the margin must stay above the floor.
        database = db(g={"trailing": 6.2})
        floor = gate_floor("g", 5.0, trailing=database)
        for drift in (0.99, 0.95, 0.80):
            assert 6.2 * drift >= floor, f"{drift:.0%} of trailing flipped the gate"
        # ...while a real regression past the margin still fails.
        assert 6.2 * 0.5 < floor

    def test_margin_defaults_when_unset(self):
        database = db(g={"trailing": 8.0})
        assert gate_floor("g", 3.0, trailing=database) == round(8.0 * DEFAULT_MARGIN, 3)

    def test_fallback_without_trailing_record(self):
        assert gate_floor("unrecorded", 5.0, trailing=db()) == 5.0
        assert gate_floor("unrecorded", 5.0, trailing={}) == 5.0
        assert gate_floor("g", 2.0, trailing=db(g={"margin": 0.5})) == 2.0

    def test_load_trailing_missing_file(self, tmp_path):
        assert load_trailing(tmp_path / "nope.json") == {}
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert load_trailing(bad) == {}


class TestRepoTrailingDatabase:
    """The checked-in benchmarks/e14_trailing.json must be usable as-is."""

    @pytest.fixture(scope="class")
    def database(self):
        return json.loads(TRAILING_PATH.read_text(encoding="utf-8"))

    def test_entries_are_well_formed(self, database):
        gates = database["gates"]
        assert gates, "trailing database should record the full-size gates"
        for name, entry in gates.items():
            assert entry["trailing"] > 0, name
            assert 0 < entry.get("margin", DEFAULT_MARGIN) <= 1, name

    def test_recording_run_passes_its_own_floors(self, database):
        # floor = trailing * margin <= trailing: the run that recorded the
        # trailing values must itself clear every derived floor.
        for name, entry in database["gates"].items():
            assert gate_floor(name, float("inf"), trailing=database) <= entry[
                "trailing"
            ], name

    def test_e14_full_size_floors_come_from_policy(self, database, monkeypatch):
        monkeypatch.delenv("E14_SMOKE", raising=False)
        from benchmarks import test_bench_e14_throughput as e14

        if e14.SMOKE:  # pragma: no cover - suite running in smoke mode
            pytest.skip("E14 imported in smoke mode; floors are hand-set")
        assert e14.GROUPING_SPEEDUP_FLOOR == gate_floor(
            "columnar_flow_grouping", 3.0, trailing=database
        )
        assert e14.SERVING_SPEEDUP_FLOOR == gate_floor(
            "serving_micro_batch", 3.0, trailing=database
        )

"""Tests of the serving benchmark itself, through its command line."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")
ROOT = RUN.parent.parent


def test_smoke_runs_every_workload_through_the_checks():
    """Tiny inputs: zero failed flows, and traced self times sum to wall time."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--smoke"], cwd=ROOT,
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    results = [
        json.loads(line) for line in done.stdout.splitlines()
        if line.startswith('{"smoke"')
    ]
    assert [r["smoke"] for r in results] == ["pcap_replay", "large_model", "live_paced"]
    assert all(r["correct"] and r["failed"] == 0 and r["attempted"] > 0 for r in results)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(RUN.parent, tmp_path / RUN.parent.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / RUN.parent.name / RUN.name),
         "--workload", "pcap_replay", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

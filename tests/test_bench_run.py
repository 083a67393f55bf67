"""Smoke test of the benchmark harness's output against the current sources.

Runs ``bench/run.py`` once, briefly, on the ``quiver`` workload and checks
the schema of the JSON line it ends with: every end-to-end metric that
``BENCHMARK.json`` declares, with its unit and a finite value, and a correct
run.  Timings are not checked.  It reads ``bench/`` and changes nothing in
it; the harness writes its own files under ``.bench_out/``.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_harness_prints_declared_end_to_end_metrics():
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "quiver",
            "--seed", "1", "--seconds", "0.5", "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert math.isfinite(metrics[m["name"]]["value"]), m["name"]

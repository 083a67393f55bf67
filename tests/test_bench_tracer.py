"""Smoke test of the benchmark's tracer against the current sources.

``bench/tracer.py`` patches names in the posetrep modules (``cli``'s
imports among them); a name it patches that no longer exists breaks only
``bench/run.py --trace 1``.  This runs the first few operations of each
workload under the tracer and checks that every per-layer metric the
benchmark declares is produced.  It reads ``bench/`` and changes nothing in
it.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from posetrep import cli

ROOT = Path(__file__).resolve().parents[1]
OPS_PER_WORKLOAD = 3


def _bench_module(name: str):
    path = ROOT / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_tracer_yields_every_declared_layer_metric(tmp_path):
    tracer_mod = _bench_module("tracer")
    workloads = _bench_module("workloads")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        main = tracer.wrap("cli.main", cli.main)
        for workload in workloads.WORKLOADS:
            ops, _ = workloads.build(workload, 1, str(tmp_path / workload))
            for op in ops[:OPS_PER_WORKLOAD]:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(op.argv) == 0, op.argv
    finally:
        tracer.uninstall()
    assert not hasattr(cli.hasse_quiver, "__wrapped__")
    metrics = tracer_mod.layer_metrics(tracer)
    # the ratio of untraced to traced throughput is computed by bench/run.py
    wanted = {m["name"] for m in declared} - {"trace.ops_per_s_ratio"}
    assert wanted <= set(metrics)

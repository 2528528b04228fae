"""The sweep benchmark's per-layer metrics stay computable.

``perfbench/spans.py`` traces a sweep by wrapping module attributes that
clogsim looks up at call time.  A metric whose span records no call is left
out of the benchmark's result line, so a change that stops calling a wrapped
function (or renames it) silently drops a declared metric.  Each grid below
stands for one benchmark workload's scenario kind and rule branch.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "perfbench"))

import run  # noqa: E402
import spans  # noqa: E402
from outputs import read_outputs  # noqa: E402


def declared_per_layer() -> set:
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)["per_layer"]}


# 12 runs per grid, so that the tail percentile (eleven runs) exists.
@pytest.mark.parametrize("scenario,phi", [("nearby", 60.0), ("nearby", 90.0), ("neutral", 45.0)])
def test_traced_sweep_yields_every_declared_metric(tmp_path, scenario, phi):
    grid = run.Workload(scenario=scenario, phi=(phi,), degrees=(2, 3), runs=6,
                        trace_runs=6, max_iters=200)
    tracer = spans.Tracer()
    assert tracer.trace_main(grid.argv(grid.trace_runs, run.DEFAULT_SEED, 1, str(tmp_path))) == 0
    out = read_outputs(str(tmp_path))
    wall = tracer.wall_s()
    metrics = spans.layer_metrics(tracer, serial_s=wall, parallel_s=wall, workers=1,
                                  rows=out.rows, nbytes=out.bytes)
    assert set(metrics) == declared_per_layer()
    assert all(math.isfinite(value) for value, _ in metrics.values())


# perfbench's set-up probe stops the CLI by replacing montecarlo.execute_sweep,
# which works only while the CLI calls the sweep through that attribute.
@pytest.mark.parametrize("config", [False, True])
def test_setup_probe_reaches_the_sweep(tmp_path, config):
    argv = ["sweep", "--scenario", "nearby", "--phi", "60", "--degrees", "2,3", "--runs", "2",
            "--workers", "1", "--out-dir", str(tmp_path)]
    if config:
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("seed=1\nmax_iters=200\n")
        argv += ["--config", str(cfg)]
    else:
        argv += ["--seed", "1"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(REPO / "perfbench" / "child.py"), "setup", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert not (tmp_path / "cells.csv").exists()

"""The sweep benchmark's per-layer metrics stay computable.

``perfbench/spans.py`` traces a sweep by wrapping module attributes that
clogsim looks up at call time.  A metric whose span records no call is left
out of the benchmark's result line, so a change that stops calling a wrapped
function (or renames it) silently drops a declared metric.  Each grid below
stands for one benchmark workload's scenario kind and rule branch.
"""

import json
import math
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

"""Tests of the sweep benchmark itself, on a tiny grid.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402

# All three branches of the rule, 12 runs per trace grid so that the tail
# percentile exists, and a low cycle cap.
TINY = run.Workload(scenario="nearby", phi=(60.0, 90.0), degrees=(2, 3),
                    runs=2, trace_runs=3, max_iters=200)
TINY_NEUTRAL = run.Workload(scenario="neutral", phi=(45.0,), degrees=(2, 3),
                            runs=2, trace_runs=6, max_iters=200)
WORKLOADS = {"tiny": TINY, "tiny_neutral": TINY_NEUTRAL}


def declared(section: str) -> dict:
    with open(run.REPO / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def bench(capsys, golden: Path, *args: str) -> tuple[int, dict | None]:
    rc = run.main(["--workload", "tiny", "--seconds", "0", *args], WORKLOADS, golden)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return rc, json.loads(last) if last.startswith("{") else None


@pytest.fixture(scope="module")
def golden(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("golden") / "golden.json"
    assert run.main(["--record-golden"], WORKLOADS, path) == 0
    return path


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(capsys, golden, trace, section):
    rc, res = bench(capsys, golden, "--trace", trace)
    assert rc == 0
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared(section)
    assert all(math.isfinite(v["value"]) for v in res["metrics"].values())


def test_self_times_are_non_negative_and_sum_to_the_traced_wall(capsys, golden):
    _, res = bench(capsys, golden, "--trace", "1")
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    selfs = [metrics[name] for name in spans.SELF_TIME_METRICS]
    assert min(selfs) >= 0.0
    assert math.isclose(sum(selfs), metrics["trace.wall_s"], rel_tol=1e-9)


def test_corrupted_golden_digest_counts_every_run_as_failed(capsys, golden, tmp_path):
    bad = json.loads(golden.read_text())
    entry = bad["workloads"]["tiny"]["timed"]
    entry["runs_sha256"] = entry["runs_sha256"][::-1]
    corrupted = tmp_path / "golden.json"
    corrupted.write_text(json.dumps(bad))
    rc, res = bench(capsys, corrupted, "--seed", str(run.DEFAULT_SEED))
    assert rc == 0
    assert res["correct"] is False
    assert res["failed"] == res["attempted"] >= 1


def test_other_seeds_are_checked_for_consistency_not_against_the_golden(capsys, golden):
    _, res = bench(capsys, golden, "--seed", "7", "--trace", "1")
    assert res["correct"] is True and res["failed"] == 0


def test_a_vanished_attribute_leaves_its_metrics_missing(monkeypatch):
    monkeypatch.setattr(spans, "SPAN_TARGETS", spans.SPAN_TARGETS + (
        ("montecarlo", "no_such_function", "montecarlo.gone"),
    ))
    tracer = spans.Tracer()
    with tracer.installed():
        from clogsim import montecarlo
        assert not hasattr(montecarlo, "no_such_function")
    tracer.wrap(spans.ROOT_SPAN, lambda: None)()
    metrics = spans.layer_metrics(tracer, serial_s=1.0, parallel_s=1.0, workers=1,
                                  rows=0, nbytes=0)
    assert set(metrics) == {"trace.wall_s", "trace.overhead_share", "cli.self_s"}


def test_all_runs_each_workload_with_one_result_line_each(capsys, golden):
    rc = run.main(["--workload", "all", "--seconds", "0"], WORKLOADS, golden)
    results = [json.loads(ln) for ln in capsys.readouterr().out.splitlines() if ln.startswith("{")]
    assert rc == 0
    assert [r["correct"] for r in results] == [True, True]


def test_benchmark_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grassroots", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()

"""Sweep benchmark: ``clogsim sweep`` workloads run through the CLI entry point.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --record-golden

Run it from the repository root.  ``--trace 0`` times whole sweeps, each in
a fresh child interpreter with ``--workers`` equal to the number of usable
CPUs, repeating the workload's grid while ``--seconds`` allow (at least
once), and prints the end-to-end metrics.  ``--trace 1`` runs the workload's
smaller trace grid three times: in a parallel child (untraced), serially in
this process (untraced), and serially in this process with spans around the
calls into each layer; it prints the per-layer metrics.  The load is a closed
batch: one sweep process whose pool takes the next run as soon as a worker
is free.

Every sweep's outputs are checked.  At the default seed their digests must
equal the ones recorded in ``golden.json``; at any other seed, every pass
must reproduce the first pass's digest.  A pass that fails a check counts
all of its runs as failed.  ``--record-golden`` re-records the digests for
every workload at the default seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are the ones declared in ``BENCHMARK.json``.  ``--workload all`` runs
every workload in turn and prints one such line after each.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
WORK_DIR = REPO / ".perfbench_work"

import spans  # noqa: E402
from outputs import OutputError, check_outputs, read_outputs  # noqa: E402

DEFAULT_SEED = 20260810  # MASTER_SEED of the acceptance suite
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass(frozen=True)
class Workload:
    """One sweep grid.  ``runs`` is the runs per cell of a timed sweep and
    ``trace_runs`` that of the traced grid.  Angles are passed as explicit
    values, never as a lo:hi:step range, whose parsing drifts."""

    scenario: str
    phi: tuple
    degrees: tuple
    runs: int
    trace_runs: int
    max_iters: int = 10_000

    def argv(self, runs: int, seed: int, workers: int, out_dir: str) -> list[str]:
        return [
            "sweep", "--scenario", self.scenario,
            "--phi", ",".join(map(str, self.phi)),
            "--degrees", ",".join(map(str, self.degrees)),
            "--runs", str(runs), "--max-iters", str(self.max_iters),
            "--seed", str(seed), "--workers", str(workers), "--out-dir", out_dir,
        ]

    def grid(self, runs: int) -> str:
        return " ".join(self.argv(runs, 0, 1, "-")[1:-6])


# Why each workload was chosen is in BENCHMARK.json and README.md.  On two
# cores the grassroots and neutral_regen timed grids take 20-30 s, so a run
# times one sweep: their cost depends on the seed, and a smaller grid repeated
# would spread more from seed to seed.  Every step_cap run hits the cycle cap,
# so its cost does not depend on the seed: its grid takes about 7 s and
# repeats, and the median damps short bursts of outside load.
# Traced grids take about 30 s in all.
WORKLOADS = {
    "grassroots": Workload(scenario="nearby", phi=(60.0,), degrees=tuple(range(2, 21)),
                           runs=20, trace_runs=5),
    "step_cap": Workload(scenario="nearby", phi=(90.0,), degrees=(4, 8, 12, 20),
                         runs=10, trace_runs=8),
    "neutral_regen": Workload(scenario="neutral", phi=(45.0,), degrees=(40, 44, 48, 52, 55),
                              runs=50, trace_runs=14),
}


@dataclass
class Pass:
    """One sweep of a grid and what its outputs showed."""

    label: str
    runs: int
    sweep_s: float
    outputs: object = None
    problems: list = field(default_factory=list)
    rss_mb: float = 0.0

    @property
    def failed(self) -> int:
        if self.problems:
            return self.runs
        return self.outputs.regen_failures


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(mode: str, argv: list[str]) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), mode, *argv]
    try:
        return subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=REPO)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {mode} took over {CHILD_TIMEOUT_S} s") from None


def env_line() -> str:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return (f"env nproc={nproc()} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={numpy_version}")


def setup_time(w: Workload, seed: int, work: Path) -> float:
    """Wall time of a fresh interpreter that imports the CLI and parses the
    workload's configuration, stopping where the sweep would start."""
    argv = w.argv(w.runs, seed, nproc(), str(work / "setup"))
    t0 = time.perf_counter()
    proc = run_child("setup", argv)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


def finish_pass(p: Pass, w: Workload, out_dir: Path, rc: int) -> Pass:
    if rc != 0:
        p.problems.append(f"clogsim sweep exited {rc}")
    try:
        p.outputs = read_outputs(str(out_dir))
        runs = p.runs // (len(w.phi) * len(w.degrees))
        p.problems += check_outputs(p.outputs, w.scenario, w.phi, w.degrees, runs, w.max_iters)
    except (OutputError, ValueError, KeyError) as e:
        p.problems.append(f"unreadable outputs: {e}")
    return p


def child_sweep(label: str, w: Workload, runs: int, seed: int, out_dir: Path) -> Pass:
    """One untraced sweep with ``nproc`` workers, in a child interpreter."""
    proc = run_child("sweep", w.argv(runs, seed, nproc(), str(out_dir)))
    if proc.returncode != 0:
        raise BenchError(f"sweep child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    p = Pass(label, runs * len(w.phi) * len(w.degrees), info["sweep_s"],
             rss_mb=max(info["rss_self_kb"], info["rss_children_kb"]) / 1024)
    return finish_pass(p, w, out_dir, info["rc"])


def in_process_sweep(label: str, w: Workload, runs: int, seed: int, out_dir: Path,
                     tracer=None) -> Pass:
    """One serial sweep in this process, traced when ``tracer`` is given."""
    from clogsim import cli

    argv = w.argv(runs, seed, 1, str(out_dir))
    with contextlib.redirect_stdout(sys.stderr):
        t0 = time.perf_counter()
        rc = tracer.trace_main(argv) if tracer else cli.main(argv)
        elapsed = time.perf_counter() - t0
    return finish_pass(Pass(label, runs * len(w.phi) * len(w.degrees), elapsed), w, out_dir, rc)


def check_digests(passes: list, expected: dict | None) -> None:
    """Compare each pass's digest with ``expected``, or with the first
    pass's when no golden digest applies."""
    reference = expected
    for p in passes:
        if p.outputs is None:
            continue
        if reference is None:
            reference = p.outputs.digest
        elif p.outputs.digest != reference:
            p.problems.append(f"digest {p.outputs.digest} differs from {reference}")


def golden_digest(golden: dict, name: str, kind: str, w: Workload, runs: int, seed: int):
    """The recorded digest when ``seed`` is the golden seed, else None."""
    if seed != golden["seed"]:
        return None
    entry = golden["workloads"].get(name, {}).get(kind)
    if entry is None or entry["grid"] != w.grid(runs):
        raise BenchError(f"golden.json has no digest for {name} {kind} grid {w.grid(runs)!r}; "
                         "re-record it with --record-golden")
    return {k: entry[k] for k in ("cells_sha256", "runs_sha256")}


def report_passes(name: str, seed: int, passes: list) -> None:
    for p in passes:
        d = p.outputs.digest if p.outputs else {}
        print(f"{name} seed={seed} pass={p.label} runs={p.runs} sweep_s={p.sweep_s:.4f} "
              f"cells_sha256={d.get('cells_sha256')} runs_sha256={d.get('runs_sha256')} "
              f"{'FAILED: ' + '; '.join(p.problems[:3]) if p.problems else 'ok'}")


def timed(name: str, w: Workload, seed: int, seconds: float, golden: dict, work: Path):
    expected = golden_digest(golden, name, "timed", w, w.runs, seed)
    setups = [setup_time(w, seed, work) for _ in range(SETUP_PROBES)]
    passes = []
    start = time.perf_counter()
    while True:
        out_dir = work / f"rep{len(passes)}"
        passes.append(child_sweep(f"rep{len(passes)}", w, w.runs, seed, out_dir))
        shutil.rmtree(out_dir)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    check_digests(passes, expected)
    report_passes(name, seed, passes)

    sweep_s = statistics.median(p.sweep_s for p in passes)
    cycles = next((p.outputs.cycles for p in passes if p.outputs is not None), 0)
    metrics = {
        "sweep_s": (sweep_s, "s"),
        "runs_per_s": (passes[0].runs / sweep_s, "1/s"),
        "cycles_per_s": (cycles / sweep_s, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in passes), "MB"),
    }
    return passes, metrics


def traced(name: str, w: Workload, seed: int, golden: dict, work: Path):
    runs = w.trace_runs
    expected = golden_digest(golden, name, "trace", w, runs, seed)
    parallel = child_sweep("parallel", w, runs, seed, work / "parallel")
    serial = in_process_sweep("serial", w, runs, seed, work / "serial")
    tracer = spans.Tracer()
    traced_pass = in_process_sweep("traced", w, runs, seed, work / "traced", tracer)
    passes = [parallel, serial, traced_pass]
    check_digests(passes, expected)
    report_passes(name, seed, passes)

    out = traced_pass.outputs
    metrics = spans.layer_metrics(
        tracer, serial_s=serial.sweep_s, parallel_s=parallel.sweep_s, workers=nproc(),
        rows=out.rows if out else 0, nbytes=out.bytes if out else 0,
    )
    shares = " ".join(f"{k}={v:.3f}" for k, v in spans.layer_shares(tracer).items())
    print(f"{name} layer self-time shares of the traced wall: {shares}")
    return passes, metrics


def declared_metrics(trace: bool) -> list:
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)["per_layer" if trace else "end_to_end"]


def result(passes: list, metrics: dict, declared: list) -> dict:
    out = {}
    for d in declared:
        if d["name"] not in metrics:
            print(f"missing metric {d['name']}: its layer recorded no calls", file=sys.stderr)
            continue
        value, unit = metrics[d["name"]]
        if unit != d["unit"]:
            raise BenchError(f"metric {d['name']} is in {unit}, BENCHMARK.json says {d['unit']}")
        out[d["name"]] = {"value": value, "unit": unit}
    attempted = sum(p.runs for p in passes)
    failed = sum(p.failed for p in passes)
    return {"correct": not any(p.problems for p in passes), "attempted": attempted,
            "failed": failed, "metrics": out}


def record_golden(workloads: dict, golden_path: Path, work: Path) -> None:
    entries = {}
    for name, w in workloads.items():
        entries[name] = {}
        for kind, runs in (("timed", w.runs), ("trace", w.trace_runs)):
            p = child_sweep(kind, w, runs, DEFAULT_SEED, work / f"{name}-{kind}")
            if p.problems:
                raise BenchError(f"{name} {kind}: {'; '.join(p.problems[:3])}")
            entries[name][kind] = {"grid": w.grid(runs), **p.outputs.digest}
            print(f"{name} {kind} sweep_s={p.sweep_s:.2f} {p.outputs.digest}")
    with open(golden_path, "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, "workloads": entries}, fh, indent=2)
        fh.write("\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of: " + ", ".join(WORKLOADS) + "; or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="sweep master seed")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="timed sweeps repeat while another fits in this time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    return parser.parse_args(argv)


def main(argv=None, workloads=WORKLOADS, golden_path=GOLDEN_PATH) -> int:
    """Run ``--workload`` (``all`` runs each in turn, one result line each)."""
    args = parse_args(argv)
    names = list(workloads) if args.workload == "all" else [args.workload]
    if not (args.record_golden or set(names) <= set(workloads)):
        print(f"error: --workload must be one of {sorted(workloads)} or all", file=sys.stderr)
        return 2
    if not (REPO / "src" / "clogsim" / "cli.py").is_file():
        print(f"error: no clogsim sources under {REPO / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(REPO / "src"))
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        if args.record_golden:
            record_golden(workloads, golden_path, work)
            return 0
        with open(golden_path, encoding="utf-8") as fh:
            golden = json.load(fh)
        print(env_line())
        for name in names:
            w, wdir = workloads[name], work / name
            wdir.mkdir()
            if args.trace:
                passes, metrics = traced(name, w, args.seed, golden, wdir)
            else:
                passes, metrics = timed(name, w, args.seed, args.seconds, golden, wdir)
            res = result(passes, metrics, declared_metrics(bool(args.trace)))
            for metric, (value, unit) in metrics.items():
                print(f"metric {name} {metric} = {value!r} {unit}")
            print(f"failed_share {res['failed']}/{res['attempted']} = "
                  f"{res['failed'] / res['attempted']!r}")
            print(json.dumps(res))
    except (BenchError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())

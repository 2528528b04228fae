"""Acceptance gate: one test per criterion, at the stated tolerances.

Every stochastic criterion runs under the single pre-committed master seed
below (fixed before any full-scale acceptance run; probes during
development used other seeds).  Results are therefore bit-reproducible;
the statistical bounds come from the criteria themselves.

Each test finishes by printing one `criterion N ...: PASS` line (visible
with `pytest -s`; `pytest -v` shows the same per-criterion verdicts).
"""

import math
import multiprocessing
import os
import time
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from clogsim.decision import clog_eval, find_fixed_points, phi_to_tau
from clogsim.montecarlo import (
    SweepSpec,
    conditional_degree_distribution,
    empirical_degree_pmf,
    execute_run,
    execute_sweep,
)
from clogsim.io_config import write_sweep_outputs
from clogsim.scenarios import ScenarioConfig

MASTER_SEED = 20260810
WORKERS = os.cpu_count() or 1


def _sweep(kind, phi_list, degree_list, runs, **scenario_kw):
    spec = SweepSpec(
        scenario=ScenarioConfig(kind=kind, phi_deg=phi_list[0], **scenario_kw),
        phi_list=phi_list,
        degree_list=degree_list,
        runs_per_cell=runs,
        master_seed=MASTER_SEED,
    )
    return execute_sweep(spec, workers=WORKERS)


def _oracle_clog_increment(m0, m1, phi_deg, beta):
    # exact clog(m1) - clog(m0) from the raw exponential formula at 50
    # digits, independent of the package's log-odds evaluation path
    with mp.workdps(50):
        tau = 1 / (2 * (mp.tan(mp.radians(phi_deg)) - 1))
        b = mp.mpf(beta)

        def clog(m):
            m = mp.mpf(m)
            num = m * mp.exp((m - b) / tau)
            return num / (num + (1 - m) * mp.exp((1 - m + b) / tau))

        return float(clog(m1) - clog(m0))


def test_criterion_1_clog_analytic_suite():
    start = time.perf_counter()
    grid = np.arange(1001) / 1000.0
    betas = (-0.4, -0.2, 0.0, 0.2, 0.4)
    h = 1e-6
    for phi in range(46, 90):
        phi = float(phi)
        tau = phi_to_tau(phi, "clog")
        for beta in betas:
            vals = clog_eval(grid, phi, beta)

            # endpoints pinned exactly
            assert vals[0] == 0.0 and vals[-1] == 1.0

            # interior fixed point at 0.5 + beta
            x = 0.5 + beta
            assert abs(clog_eval(x, phi, beta) - x) < 1e-12

            # symmetry: clog_{tau,beta}(m) + clog_{tau,-beta}(1-m) = 1
            mirror = clog_eval(1.0 - grid, phi, -beta)
            assert np.max(np.abs(vals + mirror - 1.0)) < 1e-12

            # increasing; the map is strictly increasing in exact arithmetic
            # for every tau > 0, but float64 can only step where the exact
            # increment reaches the float spacing.  Equal steps are
            # admissible on the saturation plateaus at exactly 0 or 1, and
            # strictly between them only where the exact increment is below
            # one ulp of the value.
            diffs = np.diff(vals)
            assert np.all(diffs >= 0.0)
            plateau = (vals[1:] == 1.0) | (vals[1:] == 0.0)
            for k in np.flatnonzero((diffs == 0.0) & ~plateau):
                inc = _oracle_clog_increment(grid[k], grid[k + 1], phi, beta)
                assert inc < np.spacing(vals[k]), (phi, beta, grid[k], inc)

            # slope at the interior fixed point: 1 + 2 (1/4 - beta^2)/tau,
            # which is tan(phi) in the unbiased case that defines the angle
            slope = (clog_eval(x + h, phi, beta) - clog_eval(x - h, phi, beta)) / (2 * h)
            expected = 1.0 + 2.0 * (0.25 - beta * beta) / tau
            assert abs(slope - expected) <= 1e-6 * expected
            if beta == 0.0:
                tan_phi = math.tan(math.radians(phi))
                assert abs(slope - tan_phi) <= 1e-6 * tan_phi

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 1 (clog analytic suite): PASS in {elapsed:.2f}s")


def _oracle_logistic_roots(phi_deg):
    # independent bracketing + bisection on the raw logistic formula
    tau = 1.0 / (2.0 * math.tan(math.radians(phi_deg)))

    def g(m):
        return 1.0 / (1.0 + math.exp((1.0 - 2.0 * m) / tau)) - m

    roots = []
    xs = [k / 4000.0 for k in range(4001)]
    for a, b in zip(xs[:-1], xs[1:]):
        ga, gb = g(a), g(b)
        if ga == 0.0:
            roots.append(a)
            continue
        if ga * gb < 0.0:
            lo, hi = a, b
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if g(mid) * g(lo) <= 0.0:
                    hi = mid
                else:
                    lo = mid
            roots.append(0.5 * (lo + hi))
    if g(1.0) == 0.0:
        roots.append(1.0)
    return roots


def test_criterion_2_logistic_fixed_point_structure():
    start = time.perf_counter()

    fps = find_fixed_points("logistic", 60.0)
    oracle = _oracle_logistic_roots(60.0)
    assert len(fps) == 3 and len(oracle) == 3
    for fp, root in zip(fps, oracle):
        assert abs(fp.location - root) < 1e-6
    assert [fp.stability for fp in fps] == ["stable", "unstable", "stable"]

    fps40 = find_fixed_points("logistic", 40.0)
    assert len(fps40) == 1
    assert fps40[0].location == pytest.approx(0.5, abs=1e-9)
    assert fps40[0].stability == "stable"

    for beta in (0.2, -0.2):
        fpsb = find_fixed_points("logistic", 60.0, beta)
        assert len(fpsb) == 1
        assert fpsb[0].stability == "stable"

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 2 (logistic fixed points): PASS in {elapsed:.2f}s")


def test_criterion_3_unbiased_baseline_impossibility():
    start = time.perf_counter()
    cells, records = _sweep("unbiased", (60.0, 75.0, 90.0), (2, 8, 32), 200)

    assert sum(c.n_survival for c in cells) == 0
    assert all(not r.failed for r in records)
    # fully deterministic decay at the categorical limit
    t90 = {r.t_final for r in records if r.phi_deg == 90.0}
    assert t90 == {175}

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 3 (unbiased impossibility): PASS in {elapsed:.0f}s "
          f"(0 survivals in {len(records)} runs, t90={sorted(t90)})")


def test_criterion_4_neutral_evolution_linearity():
    start = time.perf_counter()
    degrees = (2, 4, 8, 16, 32)
    cells, records = _sweep("neutral", (45.0,), degrees, 500)

    comp = [c.n_completion for c in cells]
    inversions = sum(b < a for a, b in zip(comp[:-1], comp[1:]))
    assert inversions <= 1
    total = sum(comp) / len(records)
    assert total < 0.05

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(f"criterion 4 (neutral evolution): PASS in {elapsed:.0f}s "
          f"(completions by degree {dict(zip(degrees, comp))}, rate {total:.4f})")


def test_criterion_5_nearby_partial_cascade_statistic():
    start = time.perf_counter()
    degrees = tuple(range(2, 56))  # full degree sampling range
    spec = SweepSpec(
        scenario=ScenarioConfig(kind="nearby", phi_deg=90.0),
        phi_list=(90.0,),
        degree_list=degrees,
        runs_per_cell=6,
        master_seed=MASTER_SEED,
    )
    # 300 runs spread round-robin over the degree range
    tasks = [(spec, 90.0, 2 + (i % 54), i // 54) for i in range(300)]
    with multiprocessing.Pool(WORKERS) as pool:
        records = pool.starmap(execute_run, tasks, chunksize=8)

    done = [r for r in records if not r.failed]
    assert len(done) == 300
    mbar = np.array([r.mbar_final for r in done])
    mean, sd = float(mbar.mean()), float(mbar.std(ddof=1))
    assert 0.49 <= mean <= 0.63
    assert 0.03 <= sd <= 0.14

    elapsed = time.perf_counter() - start
    assert elapsed < 900.0
    print(f"criterion 5 (nearby partial cascade): PASS in {elapsed:.0f}s "
          f"(mean {mean:.3f}, sd {sd:.3f})")


def test_criterion_6_grassroots_regime():
    start = time.perf_counter()
    degrees = tuple(range(2, 21))
    cells, records = _sweep("nearby", (60.0,), degrees, 200)

    rate = {c.innovator_degree: c.n_completion / c.runs for c in cells}
    mid_runs = [c for c in cells if 7 <= c.innovator_degree <= 15]
    pooled_mid = sum(c.n_completion for c in mid_runs) / sum(c.runs for c in mid_runs)
    assert pooled_mid > rate[2]
    assert pooled_mid > rate[20]

    pmf = empirical_degree_pmf(256, 2, np.random.default_rng(MASTER_SEED), networks=1000)
    rows = conditional_degree_distribution(records, pmf)
    posterior_peak = max(rows, key=lambda r: r[2])[0]
    assert 2 <= posterior_peak <= 6  # degree 4 +/- 2

    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0
    print(f"criterion 6 (grassroots regime): PASS in {elapsed:.0f}s "
          f"(mid {pooled_mid:.3f} vs d2 {rate[2]:.3f} / d20 {rate[20]:.3f}; "
          f"posterior peak {posterior_peak})")


def test_criterion_7_hubs_phase_transition():
    start = time.perf_counter()
    cells, _ = _sweep("hubs", (60.0, 85.0), (24,), 200)

    by_phi = {c.phi_deg: c for c in cells}
    low, high = by_phi[60.0], by_phi[85.0]
    assert low.n_completion / low.runs < 0.02
    assert high.n_completion / high.runs > 0.80
    # all-or-nothing: surviving runs almost always run to completion
    assert high.n_survival > 0
    assert high.n_completion / high.n_survival > 0.90

    elapsed = time.perf_counter() - start
    assert elapsed < 900.0
    print(f"criterion 7 (hubs phase transition): PASS in {elapsed:.0f}s "
          f"(completion {low.n_completion}/{low.runs} at 60deg, "
          f"{high.n_completion}/{high.runs} at 85deg, "
          f"{high.n_completion}/{high.n_survival} of survivors)")


def test_criterion_8_random_scenario():
    start = time.perf_counter()
    degrees = (4, 12, 24)
    cells_r, _ = _sweep("random", (70.0, 80.0, 88.0), degrees, 200)
    cells_n, _ = _sweep("neutral", (45.0,), degrees, 200)

    # survival in the categorical regime (phi >= 70, pooled per degree)
    # exceeds neutral drift at the matched degree
    neutral_rate = {c.innovator_degree: c.n_survival / c.runs for c in cells_n}
    for d in degrees:
        row = [c for c in cells_r if c.innovator_degree == d]
        pooled = sum(c.n_survival for c in row) / sum(c.runs for c in row)
        assert pooled > neutral_rate[d], (d, pooled, neutral_rate[d])

    assert sum(c.n_completion for c in cells_r) == 0

    elapsed = time.perf_counter() - start
    assert elapsed < 900.0
    print(f"criterion 8 (random scenario): PASS in {elapsed:.0f}s "
          f"(neutral survival {neutral_rate})")


def test_criterion_9_determinism_and_parallel_invariance(tmp_path):
    start = time.perf_counter()
    spec = SweepSpec(
        scenario=ScenarioConfig(kind="random", phi_deg=60.0),
        phi_list=(60.0, 75.0, 90.0),
        degree_list=(2, 8),
        runs_per_cell=10,
        master_seed=MASTER_SEED,
    )
    outputs = {}
    for label, workers in (("serial", 1), ("parallel", max(2, WORKERS))):
        cells, records = execute_sweep(spec, workers=workers)
        out_dir = tmp_path / label
        cells_path, runs_path = write_sweep_outputs(
            cells, records, spec.scenario.kind, str(out_dir)
        )
        outputs[label] = (
            Path(cells_path).read_bytes(),
            Path(runs_path).read_bytes(),
        )

    assert outputs["serial"][0] == outputs["parallel"][0]
    assert outputs["serial"][1] == outputs["parallel"][1]

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"criterion 9 (determinism / parallel invariance): PASS in {elapsed:.0f}s")

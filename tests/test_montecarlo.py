import numpy as np
import pytest

from clogsim.montecarlo import (
    CellResult,
    RunRecord,
    SweepSpec,
    aggregate_cells,
    conditional_degree_distribution,
    empirical_degree_pmf,
    execute_run,
    execute_sweep,
    mix_seed,
    worker_count,
)
from clogsim.scenarios import ScenarioConfig


def small_spec(kind="unbiased", phi_list=(75.0,), degree_list=(2,), runs=5, seed=11,
               n=64, max_iters=3000, regen_limit=50):
    template_phi = phi_list[0] if phi_list else 75.0
    return SweepSpec(
        scenario=ScenarioConfig(kind=kind, phi_deg=template_phi, n=n, max_iters=max_iters),
        phi_list=phi_list,
        degree_list=degree_list,
        runs_per_cell=runs,
        master_seed=seed,
        regen_limit=regen_limit,
    )


class TestMixSeed:
    def test_64_bit_range_and_determinism(self):
        s = mix_seed(42, "nearby", 60.0, 4, 7)
        assert 0 <= s < 2**64
        assert s == mix_seed(42, "nearby", 60.0, 4, 7)

    def test_sensitive_to_every_field(self):
        base = mix_seed(42, "nearby", 60.0, 4, 7)
        assert base != mix_seed(43, "nearby", 60.0, 4, 7)
        assert base != mix_seed(42, "hubs", 60.0, 4, 7)
        assert base != mix_seed(42, "nearby", 61.0, 4, 7)
        assert base != mix_seed(42, "nearby", 60.0, 5, 7)
        assert base != mix_seed(42, "nearby", 60.0, 4, 8)

    def test_spread(self):
        seeds = {mix_seed(1, "random", float(p), d, i)
                 for p in range(45, 91) for d in (2, 3) for i in range(3)}
        assert len(seeds) == 46 * 2 * 3


class TestExecuteRun:
    def test_deterministic(self):
        spec = small_spec()
        a = execute_run(spec, 75.0, 2, 3)
        b = execute_run(spec, 75.0, 2, 3)
        assert a == b

    def test_unbiased_always_extinct(self):
        spec = small_spec(kind="unbiased", phi_list=(75.0,), degree_list=(2,), runs=20)
        for i in range(20):
            rec = execute_run(spec, 75.0, 2, i)
            assert not rec.failed
            assert rec.outcome_label == "extinction"

    def test_off_grid_coordinates_rejected(self):
        spec = small_spec()
        with pytest.raises(ValueError):
            execute_run(spec, 60.0, 2, 0)
        with pytest.raises(ValueError):
            execute_run(spec, 75.0, 3, 0)
        with pytest.raises(ValueError):
            execute_run(spec, 75.0, 2, 99)

    def test_regen_failure_recorded(self):
        # Degree 40 nodes essentially never appear in a 16-node network.
        spec = small_spec(kind="random", phi_list=(60.0,), degree_list=(40,),
                          n=16, regen_limit=3)
        rec = execute_run(spec, 60.0, 40, 0)
        assert rec.failed
        assert rec.regen_attempts == 3
        assert rec.outcome_label == "regen_failure"
        assert np.isnan(rec.mbar_final)
        assert not (rec.survival or rec.dominance or rec.completion)

    def test_first_network_usually_has_degree_two(self):
        spec = small_spec(kind="random", phi_list=(60.0,), degree_list=(2,),
                          n=256, runs=10)
        attempts = [execute_run(spec, 60.0, 2, i).regen_attempts for i in range(10)]
        assert all(a == 1 for a in attempts)


class TestExecuteSweep:
    def test_grid_shape_and_nesting(self):
        spec = small_spec(kind="random", phi_list=(60.0, 75.0, 90.0),
                          degree_list=(2, 3, 4, 6), runs=10, max_iters=1500)
        cells, records = execute_sweep(spec, workers=1)
        assert len(cells) == 12
        assert len(records) == 120
        for c in cells:
            assert c.n_completion <= c.n_dominance <= c.n_survival <= c.runs
            assert c.runs + c.n_regen_failures == 10

    def test_parallel_matches_serial(self):
        # Degree 40 never appears in a 64-node network: its cell holds only
        # regeneration failures, whose NaN means must compare equal too.
        spec = small_spec(kind="nearby", phi_list=(60.0, 90.0), degree_list=(2, 4, 40),
                          runs=6, max_iters=1000, regen_limit=5)
        cells1, recs1 = execute_sweep(spec, workers=1)
        cells2, recs2 = execute_sweep(spec, workers=2)
        assert cells1 == cells2
        assert recs1 == recs2

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        spec = small_spec(runs=1, max_iters=50)
        with pytest.raises(ValueError, match="workers"):
            execute_sweep(spec, workers=workers)

    def test_workers_clamped_to_cores(self, serial_pool):
        spec = small_spec(kind="random", phi_list=(60.0, 90.0), degree_list=(2, 3),
                          runs=2, max_iters=300)
        result = execute_sweep(spec, workers=5000)
        assert serial_pool == [3]
        assert result == execute_sweep(spec, workers=1)

    def test_workers_clamped_to_runs(self, serial_pool):
        execute_sweep(small_spec(runs=2, max_iters=50), workers=3)
        assert serial_pool == [2]

    def test_worker_count(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 3)
        assert [worker_count(w) for w in (None, 1, 3, 4, 5000)] == [3, 1, 3, 3, 3]
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert worker_count(None) == 1

    def test_records_in_grid_order(self):
        spec = small_spec(kind="unbiased", phi_list=(75.0, 80.0), degree_list=(2, 3),
                          runs=2, max_iters=500)
        _, records = execute_sweep(spec, workers=1)
        coords = [(r.phi_deg, r.degree, r.run_index) for r in records]
        assert coords == [
            (p, d, i) for p in (75.0, 80.0) for d in (2, 3) for i in range(2)
        ]

    def test_repeated_grid_value_rejected(self):
        # A repeated value would run, and count, every cell of its row twice.
        with pytest.raises(ValueError, match="phi list repeats"):
            small_spec(phi_list=(60.0, 75.0, 60.0))
        with pytest.raises(ValueError, match="degrees list repeats"):
            small_spec(degree_list=(4, 4))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            small_spec(phi_list=())
        with pytest.raises(ValueError):
            small_spec(degree_list=())
        with pytest.raises(ValueError):
            small_spec(runs=0)
        with pytest.raises(ValueError):
            # neutral scenario cannot sweep categorical angles
            SweepSpec(
                scenario=ScenarioConfig(kind="neutral", phi_deg=45.0),
                phi_list=(45.0, 60.0),
                degree_list=(2,),
                runs_per_cell=1,
                master_seed=0,
            )

    def test_seed_outside_64_bits_rejected(self):
        # mix_seed keeps the low 64 bits, so 2**64 would alias seed 0.
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed"):
                small_spec(seed=seed)
        assert small_spec(seed=2**64 - 1).master_seed == 2**64 - 1


class TestAggregateCells:
    def _rec(self, phi, degree, idx, mbar, failed=False):
        return RunRecord(
            phi_deg=phi, degree=degree, run_index=idx, seed=0, failed=failed,
            regen_attempts=1, mbar_final=mbar, t_final=100, terminated_by="max_iterations",
        )

    def test_moments_and_counts(self):
        spec = small_spec(kind="random", phi_list=(60.0,), degree_list=(2,), runs=4)
        records = [
            self._rec(60.0, 2, 0, 0.0),
            self._rec(60.0, 2, 1, 0.5),
            self._rec(60.0, 2, 2, 1.0),
            self._rec(60.0, 2, 3, float("nan"), failed=True),
        ]
        (cell,) = aggregate_cells(spec, records)
        assert cell.runs == 3
        assert cell.n_regen_failures == 1
        assert (cell.n_survival, cell.n_dominance, cell.n_completion) == (2, 2, 1)
        assert cell.mean_mbar_final == pytest.approx(0.5)
        assert cell.sd_mbar_final == pytest.approx(0.5)
        assert cell.mean_t_final == pytest.approx(100.0)

    def test_empty_cell_is_nan(self):
        spec = small_spec(kind="random", phi_list=(60.0,), degree_list=(2,), runs=1)
        records = [self._rec(60.0, 2, 0, float("nan"), failed=True)]
        (cell,) = aggregate_cells(spec, records)
        assert cell.runs == 0
        assert np.isnan(cell.mean_mbar_final)
        assert np.isnan(cell.sd_mbar_final)


class TestDegreeDistribution:
    def test_pmf_properties(self):
        rng = np.random.default_rng(12)
        pmf = empirical_degree_pmf(256, 2, rng, networks=50)
        assert pmf.sum() == pytest.approx(1.0)
        assert pmf[0] == 0.0 and pmf[1] == 0.0  # min degree is 2
        mean_degree = float((np.arange(pmf.size) * pmf).sum())
        assert mean_degree == pytest.approx(2 * 509 / 256, abs=1e-9)
        # heavy tail: low degrees dominate
        assert pmf[2] > 0.3

    def test_bayes_inversion_uniform_rate(self):
        # With a flat completion rate the posterior equals the prior
        # restricted to the observed degrees.
        records = []
        for d in (2, 3, 4):
            for i in range(10):
                records.append(RunRecord(
                    phi_deg=60.0, degree=d, run_index=i, seed=0, failed=False,
                    regen_attempts=1, mbar_final=1.0 if i < 5 else 0.0, t_final=10,
                    terminated_by="max_iterations",
                ))
        pmf = np.zeros(5)
        pmf[2], pmf[3], pmf[4] = 0.5, 0.3, 0.2
        rows = conditional_degree_distribution(records, pmf)
        assert [r[0] for r in rows] == [2, 3, 4]
        assert all(r[1] == pytest.approx(0.5) for r in rows)
        assert [r[2] for r in rows] == [pytest.approx(p) for p in (0.5, 0.3, 0.2)]

    def test_no_completions_posterior_nan(self):
        records = [RunRecord(
            phi_deg=60.0, degree=2, run_index=0, seed=0, failed=False,
            regen_attempts=1, mbar_final=0.0, t_final=10,
            terminated_by="consensus_zero",
        )]
        rows = conditional_degree_distribution(records, np.array([0.0, 0.0, 1.0]))
        assert rows[0][1] == 0.0
        assert np.isnan(rows[0][2])

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            conditional_degree_distribution([], np.array([1.0]))

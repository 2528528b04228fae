from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clogsim.decision import tabulate_curve
from clogsim.dynamics import COMPLETION_MIN, DOMINANCE_MIN, SURVIVAL_MIN, RunOutcome, simulate_run
from clogsim.io_config import format_field
from clogsim.montecarlo import (
    CELL_DTYPE,
    RUN_DTYPE,
    SweepSpec,
    aggregate_cells,
    conditional_degree_distribution,
    empirical_degree_pmf,
    execute_run,
    execute_sweep,
    mix_seed,
    prepare_run,
    worker_count,
)
from clogsim.network import bfs_distances, find_node_with_degree, from_edges, generate_pa_network
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


def run_records(*rows):
    """Runs from (phi, degree, run_index, mbar_final) tuples; a NaN
    ``mbar_final`` marks a regeneration failure."""
    return np.array([
        (phi, d, i, 0, 1, True, m, -1, "") if np.isnan(m)
        else (phi, d, i, 0, 1, False, m, 100, "max_iterations")
        for phi, d, i, m in rows
    ], dtype=RUN_DTYPE).view(np.recarray)


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

    @pytest.mark.parametrize("kind, degree, run_index, message", [
        ("mystery", 4, 7, r"^scenario must be one of \("),
        ("nearby", 2**64, 7, r"^degree must be below 2\*\*64, got 18446744073709551616$"),
        ("nearby", 4, 2**64, r"^run_index must be below 2\*\*64, got 18446744073709551616$"),
    ])
    def test_bad_field_names_its_key(self, kind, degree, run_index, message):
        # The mix is 64 bits wide: a field of 2**64 would alias 0.
        with pytest.raises(ValueError, match=message):
            mix_seed(42, kind, 60.0, degree, run_index)


class TestExecuteRun:
    def test_deterministic(self):
        spec = small_spec()
        a = execute_run(spec, 75.0, 2, 3)
        b = execute_run(spec, 75.0, 2, 3)
        assert a.tobytes() == b.tobytes()

    def test_unbiased_always_extinct(self):
        spec = small_spec(kind="unbiased", phi_list=(75.0,), degree_list=(2,), runs=20)
        for i in range(20):
            rec = execute_run(spec, 75.0, 2, i)
            assert not rec.failed
            assert rec.mbar_final <= SURVIVAL_MIN

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
        assert np.isnan(rec.mbar_final)
        assert (rec.t_final, rec.terminated_by) == (-1, "")

    def test_first_network_usually_has_degree_two(self):
        spec = small_spec(kind="random", phi_list=(60.0,), degree_list=(2,),
                          n=256, runs=10)
        attempts = [execute_run(spec, 60.0, 2, i).regen_attempts for i in range(10)]
        assert all(a == 1 for a in attempts)


_CONFIG = ScenarioConfig(kind="random", phi_deg=60.0, n=64, innovator_degree=2)


class TestPrepareRun:
    @pytest.mark.parametrize("run_index, regen_limit, key", [
        (0, 0, "regen_limit"),
        (0, -3, "regen_limit"),
        (-1, 5, "run_index"),
    ])
    def test_bad_arguments_name_their_key(self, run_index, regen_limit, key):
        # A regen_limit of 0 would report a failure with no network tried, and
        # run_index -1 would get the seed of run 2**64 - 1.
        with pytest.raises(ValueError, match=rf"^{key} must be "):
            prepare_run(_CONFIG, 1, run_index, regen_limit)

    @pytest.mark.parametrize("master_seed", [-1, 2**64])
    def test_master_seed_outside_64_bits_rejected(self, master_seed):
        # The seed mix keeps 64 bits: -1 and 2**64 would replay master seeds
        # 2**64 - 1 and 0.
        message = r"^master_seed must lie in \[0, 2\*\*64\)"
        with pytest.raises(ValueError, match=message):
            prepare_run(_CONFIG, master_seed, 0)
        with pytest.raises(ValueError, match=message):
            mix_seed(master_seed, "random", 60.0, 2, 0)


# Seeds are not counts, but a fraction must fail with the same message.
@pytest.mark.parametrize("build, key", [
    pytest.param(lambda: small_spec(seed=1.5), "seed", id="spec-seed"),
    pytest.param(lambda: prepare_run(_CONFIG, 1.5, 0), "master_seed",
                 id="prepare_run-master_seed"),
    pytest.param(lambda: mix_seed(1.5, "random", 60.0, 2, 0), "master_seed",
                 id="mix_seed-master_seed"),
])
def test_non_integer_size_names_its_key(build, key):
    with pytest.raises(ValueError, match=rf"^{key} must be an integer, got 1\.5$"):
        build()


def test_numpy_integer_sizes_accepted():
    config = replace(_CONFIG, n=np.int64(64), attach_count=np.int32(2),
                     innovator_degree=np.int64(2), max_iters=np.int64(50))
    spec = SweepSpec(scenario=config, phi_list=(60.0,), degree_list=(np.int64(2),),
                     runs_per_cell=np.int64(2), master_seed=np.int64(3),
                     regen_limit=np.int64(5))
    _, records = execute_sweep(spec, workers=1)
    assert records.tobytes() == execute_sweep(small_spec(
        kind="random", phi_list=(60.0,), degree_list=(2,), runs=2, seed=3, max_iters=50,
        regen_limit=5,
    ), workers=1)[1].tobytes()
    a = generate_pa_network(np.int64(64), np.int64(2), np.random.default_rng(1))
    b = generate_pa_network(64, 2, np.random.default_rng(1))
    assert np.array_equal(a.indices, b.indices)


_NET = generate_pa_network(16, 2, np.random.default_rng(0))


# Every count or node argument: a call taking the value, its key, its
# minimum, and a valid value.  A fraction above the minimum must fail as
# surely as a value below it.
@pytest.mark.parametrize("call, key, low, ok", [
    pytest.param(lambda v: replace(_CONFIG, attach_count=v), "attach", 1, 2, id="config-attach"),
    pytest.param(lambda v: replace(_CONFIG, innovator_degree=v), "degree", 1, 2,
                 id="config-degree"),
    pytest.param(lambda v: replace(_CONFIG, max_iters=v), "max_iters", 1, 50,
                 id="config-max_iters"),
    pytest.param(lambda v: replace(_CONFIG, n=v), "n", 3, 64, id="config-n"),
    pytest.param(lambda v: small_spec(degree_list=(v,)), "degrees", 1, 2, id="spec-degrees"),
    pytest.param(lambda v: small_spec(runs=v), "runs", 1, 2, id="spec-runs"),
    pytest.param(lambda v: small_spec(regen_limit=v), "regen_limit", 1, 5,
                 id="spec-regen_limit"),
    pytest.param(lambda v: prepare_run(_CONFIG, 1, v), "run_index", 0, 0,
                 id="prepare_run-run_index"),
    pytest.param(lambda v: prepare_run(_CONFIG, 1, 0, v), "regen_limit", 1, 5,
                 id="prepare_run-regen_limit"),
    pytest.param(lambda v: mix_seed(1, "random", 60.0, 2, v), "run_index", 0, 0,
                 id="mix_seed-run_index"),
    pytest.param(lambda v: mix_seed(1, "random", 60.0, v, 0), "degree", 1, 2,
                 id="mix_seed-degree"),
    pytest.param(worker_count, "workers", 1, 1, id="worker_count-workers"),
    pytest.param(lambda v: empirical_degree_pmf(16, 2, np.random.default_rng(0), networks=v),
                 "networks", 1, 2, id="degree_pmf-networks"),
    pytest.param(lambda v: generate_pa_network(16, v, np.random.default_rng(0)),
                 "attach", 1, 2, id="growth-attach_count"),
    pytest.param(lambda v: generate_pa_network(v, 2, np.random.default_rng(0)), "n", 3, 16,
                 id="growth-n"),
    pytest.param(lambda v: find_node_with_degree(_NET, v, np.random.default_rng(0)),
                 "target_degree", 1, 2, id="find-target_degree"),
    pytest.param(lambda v: from_edges(v, [(0, 1), (1, 2)]), "n", 1, 3, id="from_edges-n"),
    pytest.param(lambda v: bfs_distances(_NET, v), "source", 0, 1, id="bfs-source"),
    pytest.param(lambda v: simulate_run(_NET, 0, 60.0, 0.0, np.random.default_rng(0),
                                        max_iters=v),
                 "max_iters", 1, 3, id="simulate_run-max_iters"),
    pytest.param(lambda v: simulate_run(_NET, v, 60.0, 0.0, np.random.default_rng(0),
                                        max_iters=3),
                 "innovator", 0, 1, id="simulate_run-innovator"),
    pytest.param(lambda v: tabulate_curve("clog", 60.0, v), "points", 2, 5,
                 id="tabulate_curve-n_points"),
])
def test_count_argument_checked(call, key, low, ok):
    # An integral float such as 256.0 is refused too.
    for bad in (ok + 0.5, float(ok)):
        with pytest.raises(ValueError, match=rf"^{key} must be an integer, got {bad!r}$"):
            call(bad)
    with pytest.raises(ValueError, match=rf"^{key} must be at least {low}, got {low - 1}$"):
        call(low - 1)
    call(np.int64(ok))


class TestExecuteSweep:
    def test_grid_shape_and_nesting(self):
        spec = small_spec(kind="random", phi_list=(60.0, 75.0, 90.0),
                          degree_list=(2, 3, 4, 6), runs=10, max_iters=1500)
        cells, records = execute_sweep(spec, workers=1)
        assert len(cells) == 12
        assert len(records) == 120
        assert records.t_final.shape == (120,) and cells.n_completion.shape == (12,)
        for c in cells:
            assert c.n_completion <= c.n_dominance <= c.n_survival <= c.runs
            assert c.runs + c.n_regen_failures == 10

    def test_parallel_matches_serial(self):
        # Degree 40 never appears in a 64-node network: its cell holds only
        # regeneration failures, whose NaN means must have the same bits too.
        spec = small_spec(kind="nearby", phi_list=(60.0, 90.0), degree_list=(2, 4, 40),
                          runs=6, max_iters=1000, regen_limit=5)
        cells1, recs1 = execute_sweep(spec, workers=1)
        cells2, recs2 = execute_sweep(spec, workers=2)
        assert np.isnan(cells1.mean_mbar_final[-1])
        assert cells1.tobytes() == cells2.tobytes()
        assert recs1.tobytes() == recs2.tobytes()

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
        serial = execute_sweep(spec, workers=1)
        assert [a.tobytes() for a in result] == [a.tobytes() for a in serial]

    def test_workers_clamped_to_runs(self, serial_pool):
        execute_sweep(small_spec(runs=2, max_iters=50), workers=3)
        assert serial_pool == [2]

    def test_worker_count(self, monkeypatch):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        assert [worker_count(w) for w in (None, 1, 3, 4, 5000)] == [3, 1, 3, 3, 3]
        # A process pinned to one CPU of the eight gets one worker.
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {5}, raising=False)
        assert [worker_count(w) for w in (None, 1, 2)] == [1, 1, 1]

    def test_worker_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
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

    def test_phi_that_prints_as_another_value_rejected(self):
        # 298 of these 301 np.arange values, and np.float32(60.1), differ
        # from the value their 9-digit CSV text reads back as.
        for phi_list in (tuple(np.arange(60, 90.05, 0.1)), (np.float32(60.1),)):
            with pytest.raises(ValueError, match=r"^phi \S+ prints as \S+ in sweep outputs"):
                small_spec(kind="random", phi_list=phi_list)

    @given(phi=st.one_of(st.floats(45.0, 90.0), st.floats(45.0, 90.0, width=32).map(np.float32),
                         st.integers(4500, 9000).map(lambda k: k / 100)))
    @settings(max_examples=200, deadline=None)
    def test_accepted_phi_replays_from_its_csv_text(self, phi):
        try:
            small_spec(kind="random", phi_list=(phi,))
        except ValueError as e:
            assert str(e).startswith(f"phi {float(phi)!r} prints as ")
            return
        # runs.csv prints the float64 value that seeded the run.
        replayed = float(format_field(float(phi)))
        assert mix_seed(7, "random", replayed, 2, 3) == mix_seed(7, "random", phi, 2, 3)

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

    @pytest.mark.parametrize("kwargs, key", [
        ({"degree_list": (2, 0)}, "degrees"),
        ({"regen_limit": 0}, "regen_limit"),
    ])
    def test_value_below_one_names_its_key(self, kwargs, key):
        with pytest.raises(ValueError, match=rf"^{key} must be at least 1"):
            small_spec(**kwargs)

    def test_degree_outside_64_bits_rejected(self):
        # Refused at construction, as mix_seed would refuse it in the first run.
        message = r"^degree must be below 2\*\*64, got 18446744073709551616$"
        with pytest.raises(ValueError, match=message):
            SweepSpec(ScenarioConfig("random", 60.0), (60.0,), (2, 2**64), 1, 1)

    def test_seed_outside_64_bits_rejected(self):
        # mix_seed keeps the low 64 bits, so 2**64 would alias seed 0.
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed"):
                small_spec(seed=seed)
        assert small_spec(seed=2**64 - 1).master_seed == 2**64 - 1


class TestAggregateCells:
    def test_matches_a_loop_over_runs(self):
        # The cells of a sweep with regeneration failures and an empty cell,
        # bit for bit as a loop over each cell's runs gives them.
        spec = small_spec(kind="nearby", phi_list=(60.0, 90.0), degree_list=(2, 4, 40),
                          runs=6, max_iters=1000, regen_limit=5)
        cells, records = execute_sweep(spec, workers=1)
        expected = []
        for k, (phi, d) in enumerate((p, d) for p in spec.phi_list for d in spec.degree_list):
            block = records[k * 6:(k + 1) * 6]
            done = [RunOutcome(r.mbar_final, r.t_final, r.terminated_by)
                    for r in block if not r.failed]
            mbar = np.array([o.mbar_final for o in done])
            tfin = np.array([o.t_final for o in done], dtype=np.float64)
            expected.append((
                phi, d, len(done), sum(o.mbar_final > SURVIVAL_MIN for o in done),
                sum(o.mbar_final >= DOMINANCE_MIN for o in done),
                sum(o.mbar_final >= COMPLETION_MIN for o in done),
                mbar.mean() if done else np.nan,
                mbar.std(ddof=1) if len(done) > 1 else np.nan,
                tfin.mean() if done else np.nan, 6 - len(done),
            ))
        assert 0 < records.failed.sum() < len(records)
        assert cells.tobytes() == np.array(expected, dtype=CELL_DTYPE).tobytes()

    def test_moments_and_counts(self):
        spec = small_spec(kind="random", phi_list=(60.0,), degree_list=(2,), runs=4)
        records = run_records(
            (60.0, 2, 0, 0.0), (60.0, 2, 1, 0.5), (60.0, 2, 2, 1.0), (60.0, 2, 3, np.nan),
        )
        (cell,) = aggregate_cells(spec, records)
        assert cell.runs == 3
        assert cell.n_regen_failures == 1
        assert (cell.n_survival, cell.n_dominance, cell.n_completion) == (2, 2, 1)
        assert cell.mean_mbar_final == pytest.approx(0.5)
        assert cell.sd_mbar_final == pytest.approx(0.5)
        assert cell.mean_t_final == pytest.approx(100.0)

    def test_empty_cell_is_nan(self):
        spec = small_spec(kind="random", phi_list=(60.0,), degree_list=(2,), runs=1)
        (cell,) = aggregate_cells(spec, run_records((60.0, 2, 0, np.nan)))
        assert cell.runs == 0
        assert np.isnan(cell.mean_mbar_final)
        assert np.isnan(cell.sd_mbar_final)


    def test_rows_from_execute_run_accepted(self):
        # A list of execute_run rows, as a pool mapping execute_run returns
        # them, aggregates and inverts as the sweep's array does.
        spec = small_spec(kind="nearby", phi_list=(60.0,), degree_list=(2, 40),
                          runs=3, max_iters=500, regen_limit=3)
        cells, records = execute_sweep(spec, workers=1)
        rows = [execute_run(spec, r.phi_deg, r.degree, r.run_index) for r in records]
        assert aggregate_cells(spec, rows).tobytes() == cells.tobytes()
        pmf = np.full(41, 1.0 / 41)
        np.testing.assert_array_equal(conditional_degree_distribution(rows, pmf),
                                      conditional_degree_distribution(records, pmf))


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

    def test_no_networks_rejected(self):
        with pytest.raises(ValueError, match="^networks must be at least 1"):
            empirical_degree_pmf(64, 2, np.random.default_rng(0), networks=0)

    def test_bayes_inversion_uniform_rate(self):
        # With a flat completion rate the posterior equals the prior
        # restricted to the observed degrees.
        records = run_records(*(
            (60.0, d, i, 1.0 if i < 5 else 0.0) for d in (2, 3, 4) for i in range(10)
        ))
        pmf = np.zeros(5)
        pmf[2], pmf[3], pmf[4] = 0.5, 0.3, 0.2
        rows = conditional_degree_distribution(records, pmf)
        assert [r[0] for r in rows] == [2, 3, 4]
        assert all(r[1] == pytest.approx(0.5) for r in rows)
        assert [r[2] for r in rows] == [pytest.approx(p) for p in (0.5, 0.3, 0.2)]

    def test_no_completions_posterior_nan(self):
        records = run_records((60.0, 2, 0, 0.0))
        rows = conditional_degree_distribution(records, np.array([0.0, 0.0, 1.0]))
        assert rows[0][1] == 0.0
        assert np.isnan(rows[0][2])

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            conditional_degree_distribution(run_records(), np.array([1.0]))
        with pytest.raises(ValueError):
            conditional_degree_distribution(run_records((60.0, 2, 0, np.nan)), np.array([1.0]))

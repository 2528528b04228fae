import numpy as np
import pytest

from clogsim.network import bfs_distances, from_edges, generate_pa_network
from clogsim.scenarios import (
    ScenarioConfig,
    allocate_biases,
    sample_neutral_biases,
    scenario_biases,
)


def star_path():
    # degrees: 0 -> 3, 1 -> 2, 2 -> 2, 3 -> 1
    return from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])


def paired_sum_is_zero(values):
    v = np.sort(np.asarray(values))
    return np.all(v + v[::-1] == 0.0)


class TestScenarioConfig:
    def test_neutral_forces_45(self):
        ScenarioConfig(kind="neutral", phi_deg=45.0)
        with pytest.raises(ValueError,
                           match=r"^phi must be 45 in the neutral scenario, got 60\.0$"):
            ScenarioConfig(kind="neutral", phi_deg=60.0)

    def test_unbiased_needs_categoriality(self):
        ScenarioConfig(kind="unbiased", phi_deg=60.0)
        with pytest.raises(ValueError,
                           match=r"^phi must exceed 45 in the unbiased scenario, got 45\.0$"):
            ScenarioConfig(kind="unbiased", phi_deg=45.0)

    def test_even_population(self):
        with pytest.raises(ValueError):
            ScenarioConfig(kind="random", phi_deg=60.0, n=255)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ScenarioConfig(kind="mystery", phi_deg=60.0)

    def test_angle_range(self):
        with pytest.raises(ValueError):
            ScenarioConfig(kind="hubs", phi_deg=40.0)
        with pytest.raises(ValueError):
            ScenarioConfig(kind="hubs", phi_deg=91.0)

    @pytest.mark.parametrize("kwargs, key", [
        ({"alpha": 0.0}, "alpha"),
        ({"alpha": 1.5}, "alpha"),
        ({"attach_count": 0}, "attach"),
        ({"n": 4, "attach_count": 4}, "n"),
        ({"innovator_degree": 0}, "degree"),
        ({"max_iters": 0}, "max_iters"),
        ({"n": 2**29}, "n"),  # n * attach would reach 2**30, beyond growth's draws
    ])
    def test_bad_value_names_its_key(self, kwargs, key):
        with pytest.raises(ValueError, match=rf"^{key} must "):
            ScenarioConfig(kind="random", phi_deg=60.0, **kwargs)


class TestSampleNeutralBiases:
    def test_pairing(self):
        rng = np.random.default_rng(0)
        values = sample_neutral_biases(2, rng)
        assert len(values) == 2
        assert values[0] == -values[1] or values[0] == values[1] == 0.0

    def test_sum_zero_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert paired_sum_is_zero(sample_neutral_biases(256, rng))

    def test_range_and_mean_magnitude(self):
        rng = np.random.default_rng(2)
        values = np.concatenate([sample_neutral_biases(256, rng) for _ in range(100)])
        assert np.all(np.abs(values) <= 0.5)
        # |beta| ~ U[0, 0.5] so the mean magnitude is 0.25
        assert np.mean(np.abs(values)) == pytest.approx(0.25, abs=0.01)

    def test_odd_n_rejected(self):
        message = r"^n must be even \(biases are drawn as \+/- pairs\), got 3$"
        with pytest.raises(ValueError, match=message):
            sample_neutral_biases(3, np.random.default_rng(0))


class TestAllocateBiases:
    def test_hubs_extremes_forced(self):
        net = star_path()
        values = np.array([-0.4, -0.1, 0.1, 0.4])
        for seed in range(10):
            beta = allocate_biases(values, net, 0, "hubs", np.random.default_rng(seed))
            assert beta[0] == -0.4  # unique max degree
            assert beta[3] == 0.4   # unique min degree
            assert {beta[1], beta[2]} == {-0.1, 0.1}

    def test_hubs_tie_class_shuffled(self):
        net = star_path()
        values = np.array([-0.4, -0.1, 0.1, 0.4])
        seen = set()
        for seed in range(40):
            beta = allocate_biases(values, net, 0, "hubs", np.random.default_rng(seed))
            seen.add(beta[1])
        assert seen == {-0.1, 0.1}  # both orders occur across seeds

    def test_hubs_monotone_in_degree(self):
        rng = np.random.default_rng(3)
        net = generate_pa_network(128, 2, rng)
        beta = scenario_biases("hubs", net, 0, rng)
        deg = net.degrees
        for u in range(net.n):
            for v in range(net.n):
                if deg[u] > deg[v]:
                    assert beta[u] <= beta[v]

    def test_nearby_monotone_in_distance(self):
        rng = np.random.default_rng(4)
        net = generate_pa_network(128, 2, rng)
        innovator = 17
        beta = scenario_biases("nearby", net, innovator, rng)
        dist = bfs_distances(net, innovator)
        order = np.argsort(dist, kind="stable")
        sorted_beta = beta[order]
        # within equal-distance classes order is arbitrary; across classes
        # values must not decrease as distance grows
        for d in range(int(dist.max())):
            assert sorted_beta[dist[order] == d].max() <= sorted_beta[dist[order] == d + 1].min() + 1e-15

    def test_nearby_innovator_gets_most_favorable(self):
        rng = np.random.default_rng(5)
        net = generate_pa_network(64, 2, rng)
        values = sample_neutral_biases(64, rng)
        beta = allocate_biases(values, net, 9, "nearby", rng)
        assert beta[9] == np.sort(values)[0]

    def test_random_marginal_mean_zero(self):
        rng = np.random.default_rng(6)
        net = generate_pa_network(64, 2, rng)
        acc = np.zeros(64)
        draws = 400
        for _ in range(draws):
            acc += scenario_biases("random", net, 0, rng)
        # each position's mean tends to 0 (sd of the mean ~ 0.29/20)
        assert np.all(np.abs(acc / draws) < 0.06)

    def test_random_positions_uniform(self):
        # The most innovation-favoring value should land on each of the
        # four nodes equally often.
        net = star_path()
        rng = np.random.default_rng(7)
        counts = np.zeros(4)
        draws = 2000
        for _ in range(draws):
            beta = scenario_biases("random", net, 0, rng)
            counts[int(np.argmin(beta))] += 1
        expected = draws / 4
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 16.27  # 99.9% quantile of chi-square with 3 dof

    def test_neutrality_for_all_kinds(self):
        rng = np.random.default_rng(8)
        net = generate_pa_network(64, 2, rng)
        for kind in ("hubs", "nearby", "random"):
            assert paired_sum_is_zero(scenario_biases(kind, net, 0, rng))

    def test_zero_biases_for_baselines(self):
        rng = np.random.default_rng(9)
        net = generate_pa_network(64, 2, rng)
        for kind in ("neutral", "unbiased"):
            assert np.all(scenario_biases(kind, net, 0, rng) == 0.0)

    def test_size_mismatch(self):
        net = star_path()
        with pytest.raises(ValueError):
            allocate_biases([0.1, -0.1], net, 0, "random", np.random.default_rng(0))

    def test_bad_kind(self):
        net = star_path()
        values = [-0.1, -0.2, 0.2, 0.1]
        with pytest.raises(ValueError):
            allocate_biases(values, net, 0, "unbiased", np.random.default_rng(0))

    def test_scenario_biases_unknown_kind(self):
        with pytest.raises(ValueError, match="^scenario must be one of"):
            scenario_biases("mystery", star_path(), 0, np.random.default_rng(0))

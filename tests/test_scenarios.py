import hashlib

import numpy as np
import pytest

from clogsim.network import bfs_distances, from_edges, generate_pa_network
from clogsim.scenarios import ScenarioConfig, scenario_biases


def star_path():
    # degrees: 0 -> 3, 1 -> 2, 2 -> 2, 3 -> 1
    return from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])


_NET256 = generate_pa_network(256, 2, np.random.default_rng(0))


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
        ({"innovator_degree": 2**64}, "degree"),  # beyond mix_seed's 64-bit fields
    ])
    def test_bad_value_names_its_key(self, kwargs, key):
        with pytest.raises(ValueError, match=rf"^{key} must "):
            ScenarioConfig(kind="random", phi_deg=60.0, **kwargs)


_FRESH_STATE = 61443347815480377486656218041937673925  # default_rng(13), no draw
_DRAWN_STATE = 221003606788331460880505031773270553823  # 32 uniforms, 1 permutation


@pytest.mark.parametrize("kind, digest, state", [
    ("neutral", "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
     _FRESH_STATE),
    ("unbiased", "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
     _FRESH_STATE),
    ("hubs", "c730965943c188256a8d15b7a647d274b58b4364957cf6eb7563d445dac32640",
     _DRAWN_STATE),
    ("nearby", "04f4e06f7702c1e96e2c3ea5e715212a8ecb32a72cbf5bfa368c06af9c95a24c",
     _DRAWN_STATE),
    ("random", "3f8fefc472e19bd4b037a473d515c7d2af7480c620c23899565ebf20ac84ba21",
     _DRAWN_STATE),
])
def test_bias_draws_pinned(kind, digest, state):
    # The values and the generator state after the call: a reordered or
    # extra draw changes one of them, and with it every seeded run.
    net = generate_pa_network(64, 2, np.random.default_rng(12))
    rng = np.random.default_rng(13)
    beta = scenario_biases(kind, net, 9, rng)
    assert hashlib.sha256(beta.tobytes()).hexdigest() == digest
    assert rng.bit_generator.state["state"] == {
        "state": state, "inc": 317612346296202158696945144441957901887}


class TestSampleNeutralBiases:
    def test_pairing(self):
        rng = np.random.default_rng(0)
        values = scenario_biases("random", from_edges(2, [(0, 1)]), 0, rng)
        assert len(values) == 2
        assert values[0] == -values[1] or values[0] == values[1] == 0.0

    def test_sum_zero_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert paired_sum_is_zero(scenario_biases("random", _NET256, 0, rng))

    def test_range_and_mean_magnitude(self):
        rng = np.random.default_rng(2)
        values = np.concatenate([scenario_biases("random", _NET256, 0, rng) for _ in range(100)])
        assert np.all(np.abs(values) <= 0.5)
        # |beta| ~ U[0, 0.5] so the mean magnitude is 0.25
        assert np.mean(np.abs(values)) == pytest.approx(0.25, abs=0.01)

    def test_odd_n_rejected(self):
        message = r"^n must be even \(biases are drawn as \+/- pairs\), got 3$"
        net = from_edges(3, [(0, 1), (1, 2)])
        for kind in ("hubs", "nearby", "random"):
            with pytest.raises(ValueError, match=message):
                scenario_biases(kind, net, 0, np.random.default_rng(0))


class TestAllocateBiases:
    def test_hubs_extremes_forced(self):
        net = star_path()
        for seed in range(10):
            beta = scenario_biases("hubs", net, 0, np.random.default_rng(seed))
            assert beta[0] == beta.min()  # unique max degree
            assert beta[3] == beta.max()  # unique min degree

    def test_hubs_tie_class_shuffled(self):
        net = star_path()
        seen = set()
        for seed in range(40):
            beta = scenario_biases("hubs", net, 0, np.random.default_rng(seed))
            seen.add(bool(beta[1] < beta[2]))
        assert seen == {True, False}  # both orders occur across seeds

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
        beta = scenario_biases("nearby", net, 9, rng)
        assert beta[9] == beta.min()

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

    def test_scenario_biases_unknown_kind(self):
        with pytest.raises(ValueError, match="^scenario must be one of"):
            scenario_biases("mystery", star_path(), 0, np.random.default_rng(0))

import importlib
import pkgutil

import pytest

import clogsim

PUBLIC = {
    "FixedPoint", "FixedPointContinuum", "IDENTITY_CONTINUUM",
    "clog_eval", "logistic_eval", "phi_to_tau", "find_fixed_points", "tabulate_curve",
    "Network", "from_edges", "generate_pa_network", "bfs_distances",
    "find_node_with_degree",
    "RunOutcome", "simulate_run", "run_to_completion",
    "ScenarioConfig", "sample_neutral_biases", "allocate_biases", "scenario_biases",
    "SweepSpec", "mix_seed", "execute_run", "execute_sweep",
    "empirical_degree_pmf", "conditional_degree_distribution",
    "__version__",
}

MODULES = ["clogsim"] + [
    f"clogsim.{info.name}" for info in pkgutil.iter_modules(clogsim.__path__)
]


def test_package_exports_exactly_the_public_api():
    assert len(clogsim.__all__) == len(set(clogsim.__all__))
    assert set(clogsim.__all__) == PUBLIC


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []

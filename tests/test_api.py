import ast
import importlib
import pathlib
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


SOURCES = sorted(pathlib.Path(clogsim.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    # An imported name must be read somewhere in its module, or be exported.
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(imported - used - exported) == []

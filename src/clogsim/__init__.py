"""clogsim: informational cascades of arbitrary innovations on scale-free networks.

A deterministic, seedable agent-based simulator in which individuals carry
a continuous mental state (their estimate of the community norm), emit
binary signals through the clog decision rule, and assimilate the mean
signal of their neighbors.  The package also ships an analysis toolkit for
the fixed-point structure of bounded sigmoidal decision rules and a Monte
Carlo sweep driver with reproducible, scheduling-independent seeding.
"""

from .decision import (
    FixedPoint,
    FixedPointContinuum,
    IDENTITY_CONTINUUM,
    clog_eval,
    find_fixed_points,
    logistic_eval,
    phi_to_tau,
    tabulate_curve,
)
from .dynamics import RunOutcome, run_to_completion, simulate_run
from .montecarlo import (
    SweepSpec,
    conditional_degree_distribution,
    empirical_degree_pmf,
    execute_run,
    execute_sweep,
    mix_seed,
)
from .network import (
    Network,
    bfs_distances,
    find_node_with_degree,
    from_edges,
    generate_pa_network,
)
from .scenarios import (
    ScenarioConfig,
    allocate_biases,
    sample_neutral_biases,
    scenario_biases,
)

__version__ = "0.1.0"

__all__ = [
    "FixedPoint",
    "FixedPointContinuum",
    "IDENTITY_CONTINUUM",
    "clog_eval",
    "logistic_eval",
    "phi_to_tau",
    "find_fixed_points",
    "tabulate_curve",
    "Network",
    "from_edges",
    "generate_pa_network",
    "bfs_distances",
    "find_node_with_degree",
    "RunOutcome",
    "simulate_run",
    "run_to_completion",
    "ScenarioConfig",
    "sample_neutral_biases",
    "allocate_biases",
    "scenario_biases",
    "SweepSpec",
    "mix_seed",
    "execute_run",
    "execute_sweep",
    "empirical_degree_pmf",
    "conditional_degree_distribution",
    "__version__",
]

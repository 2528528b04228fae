"""Monte Carlo sweeps over categoriality, innovator degree, and runs.

Every run is seeded by a stateless 64-bit mix of (master seed, scenario,
phi, degree, run index), so results are reproducible bit-for-bit and
independent of how runs are scheduled across worker processes.  A fresh
network is generated for each run; if the target innovator degree is
absent, networks are regenerated up to a limit and the failure is counted
rather than silently resampled.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, replace
from functools import partial
from itertools import product

import numpy as np

from .dynamics import CONSENSUS_ONE, CONSENSUS_ZERO, MAX_ITERATIONS, OUTCOMES, outcome_level
from .dynamics import run_to_completion
from .io_config import format_field
from .network import _require_integers, find_node_with_degree, generate_pa_network
from .scenarios import KINDS, ScenarioConfig, scenario_biases

__all__ = [
    "SweepSpec",
    "RUN_DTYPE",
    "CELL_DTYPE",
    "mix_seed",
    "prepare_run",
    "execute_run",
    "execute_sweep",
    "worker_count",
    "empirical_degree_pmf",
    "conditional_degree_distribution",
    "DESK_PHI_LIST",
    "DESK_DEGREE_LIST",
    "DESK_RUNS_PER_CELL",
]

# Desk-scale sweep defaults: coarse enough to finish in minutes.  The
# full-resolution grid (1-degree phi steps, degrees 2..55, 500 runs) is
# given by explicit flags, as the README shows.
DESK_PHI_LIST = (45.0, 50.0, 55.0, 60.0, 65.0, 70.0, 75.0, 80.0, 85.0, 90.0)
DESK_DEGREE_LIST = (2, 3, 4, 6, 8, 12, 16, 24, 32)
DESK_RUNS_PER_CELL = 100

DEFAULT_REGEN_LIMIT = 1000


@dataclass(frozen=True)
class SweepSpec:
    """A sweep grid: scenario template x phi list x degree list x runs.
    Each phi must be the value its 9-digit CSV text parses back to."""

    scenario: ScenarioConfig
    phi_list: tuple
    degree_list: tuple
    runs_per_cell: int
    master_seed: int
    regen_limit: int = DEFAULT_REGEN_LIMIT

    def __post_init__(self) -> None:
        for name, values in (("phi", self.phi_list), ("degrees", self.degree_list)):
            if not values:
                raise ValueError(f"{name} list must not be empty")
            if len(set(values)) != len(values):
                raise ValueError(f"{name} list repeats a value: {list(values)}")
        for phi in map(float, self.phi_list):
            # Re-runs the scenario's angle constraints for each grid value.
            replace(self.scenario, phi_deg=phi)
            # A printed value must seed the run it names.  ``phi`` is a Python
            # float: numpy 2 would compare with an np.float32 in float32.
            text = format_field(phi)
            if float(text) != phi:
                raise ValueError(f"phi {phi!r} prints as {text} in sweep outputs, which would "
                                 "replay a different seed; give at most 9 significant digits")
        for d in self.degree_list:
            _require_integers(1, degrees=d)
        _require_integers(1, runs=self.runs_per_cell, regen_limit=self.regen_limit)
        _require_integers(seed=self.master_seed)
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.master_seed!r}")


# A sweep's results: one row per run and one per cell, in grid order.  A
# run row holds its coordinates, seed, networks grown and RunOutcome fields;
# ``failed`` marks a run whose innovator degree never appeared within the
# regeneration limit (NaN ``mbar_final``, ``t_final`` -1).  The cell
# fields are the cells.csv header, in order.
_TERMINATED_BY = f"U{max(map(len, (CONSENSUS_ZERO, CONSENSUS_ONE, MAX_ITERATIONS)))}"
RUN_DTYPE = np.dtype((np.record, [
    ("phi_deg", "f8"), ("degree", "i8"), ("run_index", "i8"), ("seed", "u8"),
    ("regen_attempts", "i8"), ("failed", "?"), ("mbar_final", "f8"), ("t_final", "i8"),
    ("terminated_by", _TERMINATED_BY),
]))
CELL_DTYPE = np.dtype((np.record, [
    ("phi_deg", "f8"), ("innovator_degree", "i8"), ("runs", "i8"), ("n_survival", "i8"),
    ("n_dominance", "i8"), ("n_completion", "i8"), ("mean_mbar_final", "f8"),
    ("sd_mbar_final", "f8"), ("mean_t_final", "f8"), ("n_regen_failures", "i8"),
]))


_MASK64 = (1 << 64) - 1
_MIX_INC = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def _splitmix64(x: int) -> int:
    x = (x + _MIX_INC) & _MASK64
    x ^= x >> 30
    x = (x * _MIX_A) & _MASK64
    x ^= x >> 27
    x = (x * _MIX_B) & _MASK64
    return x ^ (x >> 31)


def mix_seed(master_seed: int, kind: str, phi_deg: float, degree: int, run_index: int) -> int:
    """Stateless 64-bit seed for one run.

    Chains splitmix64 over the tuple fields (scenario index, the angle's
    float64 bit pattern, degree, run index), so any scheduling of runs
    reproduces identical streams.
    """
    fields = (
        KINDS.index(kind),
        int(np.float64(phi_deg).view(np.uint64)),
        int(degree),
        int(run_index),
    )
    h = int(master_seed) & _MASK64
    for v in fields:
        h = _splitmix64(h ^ (v & _MASK64))
    return h


def prepare_run(
    config: ScenarioConfig,
    master_seed: int,
    run_index: int,
    regen_limit: int = DEFAULT_REGEN_LIMIT,
):
    """Seed, network, innovator and biases of one run.

    This is the one place where a run's draws are made, shared by sweeps
    and by ``clogsim run``: the seed from :func:`mix_seed`, a generator
    from it, networks generated until one holds a node of
    ``config.innovator_degree``, then the scenario's biases.  Returns
    (seed, rng, net, innovator, attempts, beta); the simulation continues
    on ``rng``.  net, innovator and beta are None when the regeneration
    limit is exhausted.
    """
    _require_integers(master_seed=master_seed)
    if not 0 <= master_seed < 2**64:
        raise ValueError(f"master_seed must lie in [0, 2**64), got {master_seed!r}")
    _require_integers(0, run_index=run_index)
    _require_integers(1, regen_limit=regen_limit)
    degree = config.innovator_degree
    seed = mix_seed(master_seed, config.kind, config.phi_deg, degree, run_index)
    rng = np.random.default_rng(seed)
    for attempt in range(1, regen_limit + 1):
        net = generate_pa_network(config.n, config.attach_count, rng)
        innovator = find_node_with_degree(net, degree, rng)
        if innovator is not None:
            beta = scenario_biases(config.kind, net, innovator, rng)
            return seed, rng, net, innovator, attempt, beta
    return seed, rng, None, None, regen_limit, None


def execute_run(spec: SweepSpec, phi_deg: float, degree: int, run_index: int) -> np.record:
    """One fully deterministic run at the given grid coordinates: a RUN_DTYPE row."""
    if phi_deg not in spec.phi_list:
        raise ValueError(f"phi {phi_deg!r} is not on the sweep grid")
    if degree not in spec.degree_list:
        raise ValueError(f"degree {degree!r} is not on the sweep grid")
    if not 0 <= run_index < spec.runs_per_cell:
        raise ValueError(f"run_index {run_index!r} outside [0, {spec.runs_per_cell})")

    config = replace(spec.scenario, phi_deg=float(phi_deg), innovator_degree=int(degree))
    seed, rng, net, innovator, attempts, beta = prepare_run(
        config, spec.master_seed, run_index, spec.regen_limit
    )
    row = (float(phi_deg), int(degree), int(run_index), seed, attempts)
    if net is None:
        row += (True, np.nan, -1, "")
    else:
        outcome = run_to_completion(
            net, innovator, config.phi_deg, beta, rng,
            alpha=config.alpha, max_iters=config.max_iters,
        )
        row += (False, outcome.mbar_final, outcome.t_final, outcome.terminated_by)
    return np.array(row, dtype=RUN_DTYPE)[()]


def _execute_task(spec: SweepSpec, task: tuple) -> np.record:
    return execute_run(spec, *task)


def worker_count(workers: int | None) -> int:
    """Worker processes for a sweep: one per CPU this process may run on
    by default, never more."""
    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    if workers is None:
        return cores
    _require_integers(1, workers=workers)
    return min(workers, cores)


def execute_sweep(spec: SweepSpec, workers: int | None = None):
    """Execute the full grid; returns (cells, records) as record arrays.

    Runs are independent and may execute on any number of workers (at
    most one per core and one per run); records are kept in grid order,
    so aggregation (and any file written from it) is identical regardless
    of scheduling.
    """
    size = len(spec.phi_list) * len(spec.degree_list) * spec.runs_per_cell
    tasks = product(map(float, spec.phi_list), map(int, spec.degree_list),
                    range(spec.runs_per_cell))
    workers = min(worker_count(workers), size)
    run = partial(_execute_task, spec)

    # Each row goes into the array as it arrives, so no list of rows is held.
    if workers == 1:
        records = np.fromiter(map(run, tasks), RUN_DTYPE, size)
    else:
        with multiprocessing.Pool(workers) as pool:
            rows = pool.imap(run, tasks, chunksize=max(1, size // (workers * 8)))
            records = np.fromiter(rows, RUN_DTYPE, size)
    records = records.view(np.recarray)
    return aggregate_cells(spec, records), records


def aggregate_cells(spec: SweepSpec, records) -> np.recarray:
    """Per-cell counts and moments, in grid order, as a CELL_DTYPE array.

    ``records`` must be in the grid order :func:`execute_sweep` returns:
    phi outermost, then degree, then run index, ``spec.runs_per_cell``
    records per cell, as a RUN_DTYPE array or a list of its rows.  Means
    and standard deviations cover completed runs only; regeneration
    failures are counted separately.  The sample SD needs two runs and the
    means one, otherwise they are NaN.
    """
    records = np.asarray(records, dtype=RUN_DTYPE)
    phis, degrees = len(spec.phi_list), len(spec.degree_list)
    cells = np.recarray(phis * degrees, dtype=CELL_DTYPE)
    cells.phi_deg = np.repeat(spec.phi_list, degrees)
    cells.innovator_degree = np.tile(spec.degree_list, phis)
    shape = (cells.size, spec.runs_per_cell)
    done = ~records["failed"].reshape(shape)
    mbar = records["mbar_final"].reshape(shape)
    tfin = records["t_final"].reshape(shape)
    cells.runs = done.sum(axis=1)
    # Runs that reached survival, dominance and completion (OUTCOMES[1:]);
    # a failed run's NaN mean reaches none.
    reached = outcome_level(mbar)[..., None] >= np.arange(1, len(OUTCOMES))
    cells.n_survival, cells.n_dominance, cells.n_completion = reached.sum(axis=1).T
    cells.n_regen_failures = spec.runs_per_cell - cells.runs
    for k, cell in enumerate(cells):
        # Each cell's completed runs as one contiguous array, so its
        # moments do not depend on the grid around it.
        m, t = mbar[k][done[k]], tfin[k][done[k]].astype(np.float64)
        cell.mean_mbar_final = m.mean() if m.size else np.nan
        cell.sd_mbar_final = m.std(ddof=1) if m.size > 1 else np.nan
        cell.mean_t_final = t.mean() if t.size else np.nan
    return cells


def empirical_degree_pmf(
    n: int,
    attach_count: int,
    rng: np.random.Generator,
    networks: int = 1000,
) -> np.ndarray:
    """Degree distribution of generated networks, as pmf[degree].

    Estimated by pooling the degree counts of ``networks`` independent
    networks (1000 by default, enough for the conditional-degree table).
    """
    _require_integers(1, networks=networks)
    counts = np.bincount(np.concatenate(
        [generate_pa_network(n, attach_count, rng).degrees for _ in range(networks)]
    ))
    return counts / counts.sum()


def conditional_degree_distribution(records, degree_pmf: np.ndarray):
    """Completion rates by innovator degree, and the Bayes inversion.

    Returns rows (degree, p_cascade_given_degree, p_degree_given_cascade)
    for every degree present in ``records``, a RUN_DTYPE array or a list
    of its rows.  The inversion weights each degree's completion rate by
    the network's degree distribution and normalizes; when no run
    completed it is undefined and reported as NaN.
    """
    records = np.asarray(records, dtype=RUN_DTYPE)
    done = ~records["failed"]
    if not done.any():
        raise ValueError("no completed run records to analyze")

    degree = records["degree"][done]
    runs = np.bincount(degree)
    completed = outcome_level(records["mbar_final"][done]) == OUTCOMES.index("completion")
    completions = np.bincount(degree, weights=completed)
    degrees = np.flatnonzero(runs)
    p_given_d = completions[degrees] / runs[degrees]

    prior = np.array([degree_pmf[d] if d < degree_pmf.size else 0.0 for d in degrees])
    joint = p_given_d * prior
    total = joint.sum()
    posterior = joint / total if total > 0.0 else np.full(len(degrees), np.nan)
    return list(zip(degrees.tolist(), p_given_d.tolist(), posterior.tolist()))

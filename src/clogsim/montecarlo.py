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
from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import product

import numpy as np

from .dynamics import RunOutcome, run_to_completion
from .network import find_node_with_degree, generate_pa_network
from .scenarios import KINDS, ScenarioConfig, scenario_biases

__all__ = [
    "SweepSpec",
    "RunRecord",
    "CellResult",
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
    """A sweep grid: scenario template x phi list x degree list x runs."""

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
        for phi in self.phi_list:
            # Re-runs the scenario's angle constraints for each grid value.
            replace(self.scenario, phi_deg=float(phi))
        for d in self.degree_list:
            if int(d) < 1:
                raise ValueError(f"degrees must be at least 1, got {d!r}")
        if self.runs_per_cell < 1:
            raise ValueError(f"runs must be at least 1, got {self.runs_per_cell!r}")
        if self.regen_limit < 1:
            raise ValueError(f"regen_limit must be at least 1, got {self.regen_limit!r}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.master_seed!r}")


def _nan_key(obj) -> tuple:
    # NaN marks a value a run or a cell could not measure; as a key it is
    # None, so a failed run or an empty cell equals its own replay.
    return tuple(None if v != v else v for v in (getattr(obj, f.name) for f in fields(obj)))


def _nan_eq(self, other):
    if type(other) is not type(self):
        return NotImplemented
    return _nan_key(self) == _nan_key(other)


def _nan_hash(self):
    return hash(_nan_key(self))


@dataclass(frozen=True)
class RunRecord(RunOutcome):
    """One run's coordinates and its RunOutcome fields; ``failed`` marks a
    run whose target innovator degree never appeared within the
    regeneration limit (its ``mbar_final`` is NaN, so no flag is set)."""

    phi_deg: float
    degree: int
    run_index: int
    seed: int
    failed: bool
    regen_attempts: int

    __eq__ = _nan_eq
    __hash__ = _nan_hash

    @property
    def outcome_label(self) -> str:
        return "regen_failure" if self.failed else super().outcome_label


@dataclass(frozen=True)
class CellResult:
    phi_deg: float
    innovator_degree: int
    runs: int
    n_survival: int
    n_dominance: int
    n_completion: int
    mean_mbar_final: float
    sd_mbar_final: float
    mean_t_final: float
    n_regen_failures: int

    __eq__ = _nan_eq
    __hash__ = _nan_hash


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
    h = master_seed & _MASK64
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


def execute_run(spec: SweepSpec, phi_deg: float, degree: int, run_index: int) -> RunRecord:
    """One fully deterministic run at the given grid coordinates."""
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
    coords = dict(phi_deg=float(phi_deg), degree=int(degree), run_index=int(run_index),
                  seed=seed, regen_attempts=attempts)
    if net is None:
        return RunRecord(**coords, failed=True, mbar_final=float("nan"), t_final=-1,
                         terminated_by="")
    outcome = run_to_completion(
        net, innovator, config.phi_deg, beta, rng,
        alpha=config.alpha, max_iters=config.max_iters,
    )
    return RunRecord(**coords, failed=False, **vars(outcome))


def worker_count(workers: int | None) -> int:
    """Worker processes for a sweep: all cores by default, never more."""
    cores = os.cpu_count() or 1
    if workers is None:
        return cores
    if workers < 1:
        raise ValueError(f"workers: must be at least 1, got {workers}")
    return min(workers, cores)


def execute_sweep(spec: SweepSpec, workers: int | None = None):
    """Execute the full grid; returns (cells, records).

    Runs are independent and may execute on any number of workers (at
    most one per core and one per run); records are kept in grid order,
    so aggregation (and any file written from it) is identical regardless
    of scheduling.
    """
    tasks = [
        (float(phi), int(d), i)
        for phi in spec.phi_list
        for d in spec.degree_list
        for i in range(spec.runs_per_cell)
    ]
    workers = min(worker_count(workers), len(tasks))
    run = partial(execute_run, spec)

    if workers == 1:
        records = [run(*c) for c in tasks]
    else:
        chunk = max(1, len(tasks) // (workers * 8))
        with multiprocessing.Pool(workers) as pool:
            records = pool.starmap(run, tasks, chunksize=chunk)

    return aggregate_cells(spec, records), records


def aggregate_cells(spec: SweepSpec, records) -> list[CellResult]:
    """Per-cell counts and moments, in grid order.

    ``records`` must be in the grid order :func:`execute_sweep` returns:
    phi outermost, then degree, then run index, ``spec.runs_per_cell``
    records per cell.  Means and standard deviations cover completed runs
    only; regeneration failures are counted separately.  The sample SD
    needs two runs and the means one, otherwise they are NaN.
    """
    runs = spec.runs_per_cell
    cells = []
    for k, (phi, d) in enumerate(product(spec.phi_list, spec.degree_list)):
        recs = records[k * runs:(k + 1) * runs]
        done = [r for r in recs if not r.failed]
        mbar = np.array([r.mbar_final for r in done])
        tfin = np.array([r.t_final for r in done], dtype=np.float64)
        cells.append(CellResult(
            phi_deg=float(phi),
            innovator_degree=int(d),
            runs=len(done),
            n_survival=sum(r.survival for r in done),
            n_dominance=sum(r.dominance for r in done),
            n_completion=sum(r.completion for r in done),
            mean_mbar_final=float(mbar.mean()) if done else float("nan"),
            sd_mbar_final=float(mbar.std(ddof=1)) if len(done) > 1 else float("nan"),
            mean_t_final=float(tfin.mean()) if done else float("nan"),
            n_regen_failures=len(recs) - len(done),
        ))
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
    if networks < 1:
        raise ValueError(f"networks must be at least 1, got {networks!r}")
    counts = np.bincount(np.concatenate(
        [generate_pa_network(n, attach_count, rng).degrees for _ in range(networks)]
    ))
    return counts / counts.sum()


def conditional_degree_distribution(records, degree_pmf: np.ndarray):
    """Completion rates by innovator degree, and the Bayes inversion.

    Returns rows (degree, p_cascade_given_degree, p_degree_given_cascade)
    for every degree present in ``records``.  The inversion weights each
    degree's completion rate by the network's degree distribution and
    normalizes; when no run completed it is undefined and reported as NaN.
    """
    done = [r for r in records if not r.failed]
    if not done:
        raise ValueError("no completed run records to analyze")

    degrees = sorted({r.degree for r in done})
    p_given_d = []
    for d in degrees:
        cell = [r for r in done if r.degree == d]
        p_given_d.append(sum(r.completion for r in cell) / len(cell))

    prior = np.array([degree_pmf[d] if d < degree_pmf.size else 0.0 for d in degrees])
    joint = np.array(p_given_d) * prior
    total = joint.sum()
    posterior = joint / total if total > 0.0 else np.full(len(degrees), np.nan)
    return [
        (d, float(p), float(q))
        for d, p, q in zip(degrees, p_given_d, posterior)
    ]

"""Bias sampling and allocation for the five experimental scenarios.

Bias values are functionally neutral by construction: magnitudes are drawn
uniformly from [0, 0.5] and enter the population as +/- pairs, so every
individual leaning toward the innovation is balanced by one leaning
against it.  What differs between scenarios is where the leanings sit:

* neutral   -- probability matching (phi = 45), biases irrelevant (zero);
* unbiased  -- categorical behavior (phi > 45) with no biases at all;
* hubs      -- innovation-favoring biases on the best-connected nodes;
* nearby    -- innovation-favoring biases closest to the innovator;
* random    -- biases scattered uniformly at random.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decision import phi_to_tau
from .dynamics import DEFAULT_ALPHA, DEFAULT_MAX_ITERS
from .network import Network, _require_growable, _require_integers, bfs_distances

__all__ = [
    "KINDS",
    "ScenarioConfig",
    "scenario_biases",
]

KINDS = ("neutral", "unbiased", "hubs", "nearby", "random")


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters for one run family.

    ``innovator_degree`` is the degree the innovator is required to have;
    the Monte Carlo layer regenerates networks until such a node exists.
    """

    kind: str
    phi_deg: float
    alpha: float = DEFAULT_ALPHA
    n: int = 256
    attach_count: int = 2
    innovator_degree: int = 4
    max_iters: int = DEFAULT_MAX_ITERS

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"scenario must be one of {KINDS}, got {self.kind!r}")
        phi_to_tau(self.phi_deg)  # the clog's angle range
        if self.kind == "neutral" and self.phi_deg != 45.0:
            raise ValueError(f"phi must be 45 in the neutral scenario, got {self.phi_deg!r}")
        if self.kind == "unbiased" and self.phi_deg == 45.0:
            raise ValueError(f"phi must exceed 45 in the unbiased scenario, got {self.phi_deg!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha!r}")
        _require_growable(self.n, self.attach_count)
        _require_integers(1, degree=self.innovator_degree, max_iters=self.max_iters)
        if self.innovator_degree >= 2**64:  # mix_seed's field width
            raise ValueError(f"degree must be below 2**64, got {self.innovator_degree!r}")
        if self.n % 2:
            raise ValueError(f"n must be even (biases are drawn as +/- pairs), got {self.n!r}")


def _ranked_order(key: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    # Random permutation first, stable sort second: uniform shuffle within
    # every tie class, so node indexing leaves no artifacts.
    perm = rng.permutation(key.size)
    return perm[np.argsort(key[perm], kind="stable")]


def scenario_biases(
    kind: str,
    net: Network,
    innovator: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-node bias vector for one run of the given scenario kind.

    Zero for neutral and unbiased.  Otherwise n/2 magnitudes are drawn from
    U[0, 0.5] as +/- pairs (n must be even), sorted ascending (most
    innovation-favoring first) and assigned along the scenario's ranking:
    by descending degree for hubs, by ascending distance from the innovator
    for nearby, or to a uniform random permutation.  The innovator itself
    is ranked like any node; in the nearby scenario it sits alone at
    distance 0 and therefore receives the most favorable value.
    """
    if kind not in KINDS:
        raise ValueError(f"scenario must be one of {KINDS}, got {kind!r}")
    if kind in ("neutral", "unbiased"):
        return np.zeros(net.n, dtype=np.float64)
    if net.n % 2:
        raise ValueError(f"n must be even (biases are drawn as +/- pairs), got {net.n!r}")
    mag = rng.uniform(0.0, 0.5, net.n // 2)
    if kind == "random":
        order = rng.permutation(net.n)
    elif kind == "hubs":
        order = _ranked_order(-net.degrees, rng)
    else:
        order = _ranked_order(bfs_distances(net, innovator), rng)
    beta = np.empty(net.n, dtype=np.float64)
    beta[order] = np.sort(np.concatenate([mag, -mag]))
    return beta

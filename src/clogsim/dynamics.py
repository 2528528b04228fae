"""Per-run simulation state machine.

Each cycle has two synchronous phases.  First every node draws a binary
signal from its current mental state through the clog production rule;
then every node replaces its mental state with a convex combination of the
old state and the mean signal of its neighbors (self excluded):

    m_i <- alpha * mean_{j in N_i} s_j + (1 - alpha) * m_i

Both phases read only pre-phase values, so iteration order cannot affect
results.  A run ends at consensus (every m_i within 1e-8 of the same
corner) or at a cycle cap, and the final population mean classifies the
outcome: survival, dominance, completion.

At phi = 90 the rule is a step, so a cycle in which every production
probability is exactly 0 or 1 draws signals that do not depend on chance.
If such a cycle also leaves every mental state bitwise unchanged, the state
is absorbing: each later cycle would redraw the same signals and rebuild
the same states.  The run then stops early and reports exactly what the
cycle cap would have reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decision import production_rule
from .network import Network

__all__ = [
    "CONSENSUS_EPS",
    "SURVIVAL_MIN",
    "DOMINANCE_MIN",
    "COMPLETION_MIN",
    "DEFAULT_ALPHA",
    "DEFAULT_MAX_ITERS",
    "CONSENSUS_ZERO",
    "CONSENSUS_ONE",
    "MAX_ITERATIONS",
    "RunOutcome",
    "simulate_run",
    "run_to_completion",
]

CONSENSUS_EPS = 1e-8
SURVIVAL_MIN = 1e-4          # mbar above this: the innovation avoided extinction
DOMINANCE_MIN = 0.5          # mbar at/above this: it overtook the incumbent
COMPLETION_MIN = 1.0 - 1e-4  # mbar at/above this: the incumbent is extinct

DEFAULT_ALPHA = 0.1
DEFAULT_MAX_ITERS = 10_000

CONSENSUS_ZERO = "consensus_zero"
CONSENSUS_ONE = "consensus_one"
MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class RunOutcome:
    """How a run ended.  The outcome flags nest and follow from
    ``mbar_final`` alone; a NaN mean sets none of them."""

    mbar_final: float
    t_final: int
    terminated_by: str

    @property
    def survival(self) -> bool:
        return self.mbar_final > SURVIVAL_MIN

    @property
    def dominance(self) -> bool:
        return self.mbar_final >= DOMINANCE_MIN

    @property
    def completion(self) -> bool:
        return self.mbar_final >= COMPLETION_MIN

    @property
    def outcome_label(self) -> str:
        """The furthest outcome reached."""
        if self.completion:
            return "completion"
        if self.dominance:
            return "dominance"
        if self.survival:
            return "survival"
        return "extinction"


def _initial_state(n: int, innovator: int) -> np.ndarray:
    """All-incumbent population except a single fully convinced innovator."""
    if not 0 <= innovator < n:
        raise ValueError(f"innovator {innovator!r} out of range for n={n}")
    m = np.zeros(n, dtype=np.float64)
    m[innovator] = 1.0
    return m


def _cycle(m, rule, indptr, indices, inv_deg, alpha, rng):
    # Phase 1: produce.  Phase 2: average neighbor signals and update.
    p = rule(m)
    s = rng.random(m.size) < p
    inp = np.add.reduceat(s[indices].astype(np.float64), indptr[:-1]) * inv_deg
    return alpha * inp + (1.0 - alpha) * m, s, p


def simulate_run(
    net: Network,
    innovator: int,
    phi_deg: float,
    beta,
    rng: np.random.Generator,
    *,
    alpha: float = DEFAULT_ALPHA,
    max_iters: int = DEFAULT_MAX_ITERS,
    mbar_trace: list | None = None,
) -> tuple[RunOutcome, np.ndarray]:
    """Run from the standard initial state until consensus or the cap.

    Returns the outcome and the final mental states.

    If ``mbar_trace`` is a list, the population mean is appended each cycle
    (index = cycle, starting with the initial state at index 0).

    At ``phi_deg == 90`` a run that reaches an absorbing state (every
    production probability exactly 0 or 1 and the mental states bitwise
    unchanged by the cycle) stops there.  Its outcome, final state and
    trace, padded with the unchanging mean, equal those of the full loop up
    to ``max_iters``; only ``rng`` is not advanced through the skipped
    cycles.
    """
    if net.n == 0 or int(net.degrees.min()) < 1:
        raise ValueError("simulation requires every node to have at least one neighbor")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters!r}")

    m = _initial_state(net.n, innovator)
    rule = production_rule(phi_deg, beta)
    inv_deg = 1.0 / net.degrees.astype(np.float64)
    indptr, indices = net.indptr, net.indices

    if mbar_trace is not None:
        mbar_trace.append(float(m.mean()))

    step_rule = phi_deg == 90.0
    terminated_by = MAX_ITERATIONS
    t = 0
    for t in range(1, max_iters + 1):
        m_prev = m
        m, s, p = _cycle(m, rule, indptr, indices, inv_deg, alpha, rng)
        if mbar_trace is not None:
            mbar_trace.append(float(m.mean()))
        mx = float(m.max())
        if mx < CONSENSUS_EPS:
            terminated_by = CONSENSUS_ZERO
            break
        if mx > 1.0 - CONSENSUS_EPS and float(m.min()) > 1.0 - CONSENSUS_EPS:
            terminated_by = CONSENSUS_ONE
            break
        # Below 90 no mixed state is absorbing, so only the step rule checks.
        if step_rule and np.array_equal(m, m_prev) and not np.any((p > 0.0) & (p < 1.0)):
            if mbar_trace is not None:
                mbar_trace.extend([mbar_trace[-1]] * (max_iters - t))
            t = max_iters
            break

    return RunOutcome(float(m.mean()), t, terminated_by), m


def run_to_completion(
    net: Network,
    innovator: int,
    phi_deg: float,
    beta,
    rng: np.random.Generator,
    *,
    alpha: float = DEFAULT_ALPHA,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> RunOutcome:
    """Like :func:`simulate_run`, returning only the outcome.

    This is the call ``montecarlo.execute_run`` makes; the ``dynamics.run``
    span of ``perfbench/spans.py`` wraps ``montecarlo.run_to_completion``
    to time the sweep's runs.
    """
    outcome, _ = simulate_run(
        net, innovator, phi_deg, beta, rng, alpha=alpha, max_iters=max_iters
    )
    return outcome

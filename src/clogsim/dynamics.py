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

At phi = 90 the rule is a step at the threshold 0.5 + beta, so once every
mental state and every neighbour input lies strictly on the side of its
node's threshold that the node's signal is on, the signals are settled:
each later cycle redraws them unchanged, and each state follows the fixed
map x <- alpha * input + (1 - alpha) * x.  The run then iterates that map
alone, with the same arithmetic, until a state leaves its side (and full
cycles resume), consensus is reached, or the states stop changing (an
absorbing state, reported as a run capped at the cycle limit).  Results,
trace and generator state equal those of the full cycle loop.

Cycles run in blocks of one size, one row of n per cycle: 8,192 values
(32 cycles of 256 nodes), the last block of a run cut to its cycle cap.
Full cycles draw a block with one ``rng.random((k, n))``, the same doubles
as k calls of ``rng.random(n)``, and each cycle writes its states over the
row of uniforms it has just used; settled cycles draw nothing.  Either way
the block ends holding one row of states per cycle, and one test over its
rows finds the first stop: consensus, or in settled cycles a repeated row
or a state off its side.  Rows after the stop are discarded.  PCG64 takes
one output per double, so ``bit_generator.advance`` then puts the
generator at its start plus n outputs per cycle run: back over the rows a
stop or a settling left unused, forward over settled cycles, up to the
cap for an absorbing state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decision import production_rule, step_threshold
from .network import Network, _require_integers

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
    "OUTCOMES",
    "outcome_level",
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


# Outcomes in the order a run's final mean reaches them: the thresholds nest.
OUTCOMES = ("extinction", "survival", "dominance", "completion")


def outcome_level(mbar):
    """Index into OUTCOMES of the furthest outcome a final mean reached (the
    count of thresholds it passed), elementwise for an array of means; a
    NaN mean reaches none."""
    m = np.asarray(mbar)
    return (m > SURVIVAL_MIN).astype(np.int8) + (m >= DOMINANCE_MIN) + (m >= COMPLETION_MIN)


@dataclass(frozen=True)
class RunOutcome:
    """How a run ended.  Its outcome follows from ``mbar_final`` alone
    (:func:`outcome_level`); a NaN mean reaches none."""

    mbar_final: float
    t_final: int
    terminated_by: str

    @property
    def outcome_label(self) -> str:
        """The furthest outcome reached."""
        return OUTCOMES[outcome_level(self.mbar_final)]


def _initial_state(n: int, innovator: int) -> np.ndarray:
    """All-incumbent population except a single fully convinced innovator."""
    _require_integers(0, innovator=innovator)
    if innovator >= n:
        raise ValueError(f"innovator {innovator!r} out of range for n={n}")
    m = np.zeros(n, dtype=np.float64)
    m[innovator] = 1.0
    return m


# At most this many values (64 KiB) per block of rows, one row per cycle:
# uniforms, then states, in full cycles; states in settled ones.  Blocks
# of 128 KiB (64 rows of 256 nodes) raised the peak RSS of a sweep worker
# by about 0.4 MB over drawing one row per cycle; 64 KiB blocks do not.
_MAX_DRAW = 8192


def _cycle(m, u, rule, owner, indices, inv_deg, alpha, c):
    # Phase 1: produce from the uniforms ``u``.  Phase 2: average neighbor
    # signals and write the new states over ``u``; ``c`` is 1 - alpha.  Node
    # owner[k] hears node indices[k] (see Network.owner).  A node's signal
    # count is a sum of 0/1, exact in any order, so bincount gives the CSR
    # row sums exactly.
    s = u < rule(m)
    inp = np.bincount(owner, s[indices]) * inv_deg
    return np.add(np.multiply(c, m, u), alpha * inp, u), s, inp


def _on_side(x, s, thr):
    """Per row of ``x``: every node strictly on the side of ``thr`` that its
    signal in ``s`` is on."""
    return np.where(s, x > thr, x < thr).all(axis=-1)


def _settled(m, s, inp, thr) -> bool:
    """Whether the step rule will redraw the signals ``s`` for as long as the
    states stay on their sides: the states ``m`` and the inputs ``inp`` lie
    strictly on each node's side of ``thr``.  Off the threshold the rule's
    value is exactly 0 or 1, so no draw can flip a signal."""
    return bool(_on_side(inp, s, thr)) and bool(_on_side(m, s, thr))


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

    Returns the outcome and the final mental states.  ``beta`` is a scalar
    or one value per node, each in [-0.5, 0.5].

    If ``mbar_trace`` is a list, the population mean is appended each cycle
    (index = cycle, starting with the initial state at index 0).

    Each block of cycles runs in one of two modes.  Full cycles run the
    rule and gather signals.  At ``phi_deg == 90``, once the
    signals are settled (see the module docstring), the next blocks'
    cycles advance the states by the update map alone, until a state
    leaves its side and full cycles resume.  An absorbing state ends the
    run as the cycle cap would: ``t_final == max_iters``, and the trace is
    padded with the unchanging mean.  Outcome, final states, trace and
    the state of ``rng``, a PCG64 generator as ``np.random.default_rng``
    makes, equal those of the full cycle loop.
    """
    if net.n == 0 or int(net.degrees.min()) < 1:
        raise ValueError("simulation requires every node to have at least one neighbor")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
    _require_integers(1, max_iters=max_iters)
    if not isinstance(rng.bit_generator, np.random.PCG64):
        raise ValueError(f"rng must be a PCG64 generator, got {rng.bit_generator!r}")
    b = np.asarray(beta, dtype=np.float64)
    if b.shape not in ((), (net.n,)):
        raise ValueError(f"beta must be a scalar or one value per node ({net.n}), "
                         f"got shape {b.shape}")

    m = _initial_state(net.n, innovator)
    rule = production_rule(phi_deg, beta)
    inv_deg = 1.0 / net.degrees.astype(np.float64)
    owner, indices = net.owner, net.indices
    c = 1.0 - alpha

    if mbar_trace is not None:
        mbar_trace.append(float(m.mean()))

    # Below 90 signals are never settled, so only the step rule checks.
    thr = step_threshold(beta) if phi_deg == 90.0 else None
    terminated_by = None
    t = 0
    held = None  # alpha * input of the settled signals s; None in full cycles
    n = int(net.n)  # advance takes Python ints, not numpy ones
    rows = max(1, _MAX_DRAW // n)
    bits = rng.bit_generator
    start = bits.state
    while terminated_by is None and t < max_iters:
        k = int(min(rows, max_iters - t))
        if held is None:
            x = rng.random((k, n))
            drawn = k
            for used, u in enumerate(x, 1):
                m, s, inp = _cycle(m, u, rule, owner, indices, inv_deg, alpha, c)
                if thr is not None and _settled(m, s, inp, thr):
                    held = alpha * inp
                    break
            x = x[:used]
            same = off = np.zeros(used, dtype=bool)
        else:
            # Each row is alpha * inp + (1 - alpha) * x, a full cycle's
            # arithmetic; a row that repeats the one before it or leaves a
            # node's side stops the block too.
            x = np.empty((k, n))
            drawn = 0
            prev = m
            for row in x:
                np.multiply(c, prev, out=row)
                np.add(held, row, out=row)
                prev = row
            same = (x == np.vstack((m, x[:-1]))).all(axis=1)
            off = ~_on_side(x, s, thr)
        zero = x.max(axis=1) < CONSENSUS_EPS
        one = x.min(axis=1) > 1.0 - CONSENSUS_EPS
        stop = zero | one | same | off
        used = int(np.argmax(stop)) + 1 if stop.any() else len(x)
        m = x[used - 1].copy()
        if mbar_trace is not None:
            mbar_trace.extend(float(r.mean()) for r in x[:used])
        if zero[used - 1]:
            terminated_by = CONSENSUS_ZERO
        elif one[used - 1]:
            terminated_by = CONSENSUS_ONE
        elif same[used - 1]:
            if mbar_trace is not None:
                mbar_trace.extend([mbar_trace[-1]] * (max_iters - t - used))
            used = int(max_iters - t)  # the absorbing state holds to the cap
            terminated_by = MAX_ITERATIONS
        elif off[used - 1]:
            held = None
        bits.advance((used - drawn) * n)
        t += used

    # Put back the uint32 growth may have buffered: advance clears it.
    end = bits.state
    bits.state = {**end, "has_uint32": start["has_uint32"], "uinteger": start["uinteger"]}
    return RunOutcome(float(m.mean()), t, terminated_by or MAX_ITERATIONS), m


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

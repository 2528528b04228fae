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
alone, with the same arithmetic, until a state crosses its threshold (and
full cycles resume), consensus is reached, or the states stop changing
(an absorbing state, reported as a run capped at the cycle limit).  The
results, the trace and the generator state equal those of the full cycle
loop, except that an absorbing run does not draw its remaining cycles.

The uniforms behind the signals are drawn in blocks, one row of n per
cycle: 8 cycles, then 16, and so on, doubling up to 8,192 uniforms (32
cycles of 256 nodes), the last block of a run cut to its cycle cap.  One ``rng.random((k, n))`` yields the same doubles
as k calls of ``rng.random(n)``.  When a run stops inside a block (at
consensus, or when its signals settle and the fast-forward takes over),
the generator is restored to its state before the block and redraws only
the rows used, so it ends where a draw per cycle would have left it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decision import production_rule, step_threshold
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
    """How a run ended.  The outcome flags nest and follow from
    ``mbar_final`` alone (:func:`outcome_level`); a NaN mean sets none."""

    mbar_final: float
    t_final: int
    terminated_by: str

    @property
    def survival(self) -> bool:
        return bool(outcome_level(self.mbar_final) >= 1)

    @property
    def dominance(self) -> bool:
        return bool(outcome_level(self.mbar_final) >= 2)

    @property
    def completion(self) -> bool:
        return bool(outcome_level(self.mbar_final) >= 3)

    @property
    def outcome_label(self) -> str:
        """The furthest outcome reached."""
        return OUTCOMES[outcome_level(self.mbar_final)]


def _initial_state(n: int, innovator: int) -> np.ndarray:
    """All-incumbent population except a single fully convinced innovator."""
    if not 0 <= innovator < n:
        raise ValueError(f"innovator {innovator!r} out of range for n={n}")
    m = np.zeros(n, dtype=np.float64)
    m[innovator] = 1.0
    return m


# Uniforms are drawn, and settled signals fast-forwarded, in blocks of
# rows, one row per cycle.  A small first block wastes few rows when a run
# soon stops or a state soon leaves its side; doubling up to the last
# spreads each block's fixed costs over more rows.
_FIRST_BLOCK = 8
_MAX_BLOCK = 64
# At most this many uniforms (64 KiB) per block.  Blocks of 128 KiB, 64
# rows of 256 nodes, raised the peak RSS of a sweep worker by about 0.4 MB
# over the earlier code, which drew one row per cycle.  With 64 KiB blocks
# it is 0.1-0.2 MB above that code, as was a variant of this module that
# drew one row per cycle, so the blocks are not the rest's source.
_MAX_DRAW = 8192


def _cycle(m, u, rule, owner, indices, inv_deg, alpha, c):
    # Phase 1: produce from the uniforms ``u``.  Phase 2: average neighbor
    # signals and update; ``c`` is 1 - alpha.  Node owner[k] hears node
    # indices[k] (see Network.owner).  A node's signal count is a sum of
    # 0/1, exact in any order, so bincount gives the CSR row sums exactly.
    p = rule(m)
    s = u < p
    inp = np.bincount(owner, s[indices]) * inv_deg
    return alpha * inp + c * m, s, p, inp


def _rewind(rng, state, uniforms, used):
    """Leave ``rng`` where drawing only the first ``used`` rows of the
    block ``uniforms``, drawn from ``state``, would have left it.

    Restoring the state keeps the buffered uint32 that network growth may
    have left, which ``bit_generator.advance`` would clear.
    """
    if used < len(uniforms):
        rng.bit_generator.state = state
        rng.random(used * uniforms.shape[1])


def _on_side(x, s, thr):
    """Per row of ``x``: every node strictly on the side of ``thr`` that its
    signal in ``s`` is on."""
    return np.where(s, x > thr, x < thr).all(axis=-1)


def _settled(m, s, p, inp, thr) -> bool:
    """Whether the step rule will redraw the signals ``s`` for as long as the
    states stay on their sides: every ``p`` is 0 or 1, and the states ``m``
    and the inputs ``inp`` lie strictly on each node's side of ``thr``."""
    return (bool(_on_side(inp, s, thr)) and bool(_on_side(m, s, thr))
            and not np.any((p > 0.0) & (p < 1.0)))


def _fast_forward(m, s, inp, thr, alpha, t, max_iters, rng, mbar_trace):
    """Cycles after cycle ``t`` with the settled signals ``s`` held fixed.

    Each row is ``alpha * inp + (1 - alpha) * x``, the arithmetic of a full
    cycle.  Stops at the first row that reaches consensus, repeats the row
    before it (an absorbing state: the trace is padded to ``max_iters``) or
    leaves a node's side, where full cycles resume.  ``rng`` draws what the
    skipped cycles would have drawn, except after an absorbing state.
    Returns (m, t, terminated_by); terminated_by is None when cycles resume.
    """
    a = alpha * inp
    c = 1.0 - alpha
    x = m
    block = _FIRST_BLOCK
    while t < max_iters:
        rows = np.empty((min(block, max_iters - t), m.size))
        for row in rows:
            np.multiply(c, x, out=row)
            np.add(a, row, out=row)
            x = row
        zero = rows.max(axis=1) < CONSENSUS_EPS
        one = rows.min(axis=1) > 1.0 - CONSENSUS_EPS
        same = (rows == np.vstack((m, rows[:-1]))).all(axis=1)
        stop = zero | one | same | ~_on_side(rows, s, thr)
        j = int(np.argmax(stop)) if stop.any() else len(rows) - 1
        t += j + 1
        m = rows[j].copy()
        if mbar_trace is not None:
            mbar_trace.extend(float(r.mean()) for r in rows[:j + 1])
        if same[j]:
            if mbar_trace is not None:
                mbar_trace.extend([mbar_trace[-1]] * (max_iters - t))
            return m, max_iters, MAX_ITERATIONS
        rng.random((j + 1) * m.size)
        if zero[j]:
            return m, t, CONSENSUS_ZERO
        if one[j]:
            return m, t, CONSENSUS_ONE
        if stop[j]:
            return m, t, None
        block = min(2 * block, _MAX_BLOCK)
    return m, t, MAX_ITERATIONS


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

    At ``phi_deg == 90``, once the signals are settled (see the module
    docstring) the states are advanced by the update map alone, without
    calling the rule or gathering signals.  An absorbing state ends the
    run as the cycle cap would: ``t_final == max_iters``, and the trace is
    padded with the unchanging mean.  Outcome, final states, trace and,
    for every run not stopped at ``max_iters``, the state of ``rng`` equal
    those of the full cycle loop.
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
    owner, indices = net.owner, net.indices
    c = 1.0 - alpha

    if mbar_trace is not None:
        mbar_trace.append(float(m.mean()))

    # Below 90 signals are never settled, so only the step rule checks.
    thr = step_threshold(beta) if phi_deg == 90.0 else None
    terminated_by = MAX_ITERATIONS
    t = 0
    # uniforms[row] is the next cycle's row; the block was drawn from state.
    uniforms, row, block, state = (), 0, _FIRST_BLOCK, None
    max_rows = max(1, _MAX_DRAW // net.n)
    while t < max_iters:
        if row == len(uniforms):
            state = rng.bit_generator.state
            uniforms = rng.random((min(block, max_rows, max_iters - t), net.n))
            row, block = 0, min(2 * block, max_rows)
        m, s, p, inp = _cycle(m, uniforms[row], rule, owner, indices, inv_deg, alpha, c)
        row += 1
        t += 1
        if mbar_trace is not None:
            mbar_trace.append(float(m.mean()))
        mx = float(m.max())
        if mx < CONSENSUS_EPS:
            terminated_by = CONSENSUS_ZERO
            break
        if mx > 1.0 - CONSENSUS_EPS and float(m.min()) > 1.0 - CONSENSUS_EPS:
            terminated_by = CONSENSUS_ONE
            break
        if thr is not None and _settled(m, s, p, inp, thr):
            _rewind(rng, state, uniforms, row)
            uniforms, row, block = (), 0, _FIRST_BLOCK
            m, t, exit_ = _fast_forward(m, s, inp, thr, alpha, t, max_iters, rng, mbar_trace)
            if exit_ is not None:
                terminated_by = exit_
                break

    _rewind(rng, state, uniforms, row)
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

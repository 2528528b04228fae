import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clogsim import dynamics
from clogsim.decision import production_rule
from clogsim.dynamics import (
    COMPLETION_MIN,
    CONSENSUS_EPS,
    CONSENSUS_ONE,
    CONSENSUS_ZERO,
    DEFAULT_ALPHA,
    DOMINANCE_MIN,
    MAX_ITERATIONS,
    OUTCOMES,
    SURVIVAL_MIN,
    RunOutcome,
    outcome_level,
    run_to_completion,
    simulate_run,
)
from clogsim.montecarlo import prepare_run
from clogsim.network import from_edges, generate_pa_network
from clogsim.scenarios import ScenarioConfig


def star4():
    # hub 0 with three leaves
    return from_edges(4, [(0, 1), (0, 2), (0, 3)])


def pair():
    return from_edges(2, [(0, 1)])


def cycle(m, net, phi_deg, beta, alpha, rng):
    """One cycle of ``dynamics._cycle``: (next states, signals, neighbour inputs)."""
    inv_deg = 1.0 / net.degrees.astype(np.float64)
    return dynamics._cycle(m, rng.random(net.n), production_rule(phi_deg, beta), net.owner,
                           net.indices, inv_deg, alpha, 1.0 - alpha)


class TestInitState:
    def test_single_innovator(self):
        m = dynamics._initial_state(32, 7)
        assert m[7] == 1.0
        assert m.sum() == 1.0
        assert m.mean() == pytest.approx(1 / 32)

    def test_triangle(self):
        assert list(dynamics._initial_state(3, 0)) == [1.0, 0.0, 0.0]

    def test_invalid_innovator(self):
        for bad in (4, -1):
            with pytest.raises(ValueError, match="innovator"):
                simulate_run(star4(), bad, 60.0, 0.0, np.random.default_rng(0))


class TestStep:
    def test_certain_signal_then_decay(self):
        # Hub at m=1 with a categorical rule emits 1 for sure; its three
        # leaves all emit 0, so the hub's new state is 0.9 exactly.
        net = star4()
        m, s, _ = cycle(dynamics._initial_state(4, 0), net, 90.0, 0.0, 0.1,
                        np.random.default_rng(0))
        assert m[0] == pytest.approx(0.9, abs=0)
        assert list(s) == [True, False, False, False]

    def test_zero_state_absorbing(self):
        m, _, _ = cycle(np.zeros(4), star4(), 60.0, 0.0, 0.1, np.random.default_rng(1))
        assert np.all(m == 0.0)

    def test_ones_state_absorbing(self):
        m, _, _ = cycle(np.ones(4), star4(), 60.0, 0.0, 0.1, np.random.default_rng(2))
        assert np.all(m == 1.0)

    def test_update_arithmetic(self):
        # m=0.5 with full input and alpha=0.1 moves to 0.55.
        m, _, _ = cycle(np.array([1.0, 0.5]), pair(), 90.0, 0.0, 0.1,
                        np.random.default_rng(3))
        assert m[1] == pytest.approx(0.55, abs=1e-15)

    def test_synchronous_phases(self):
        # Signals are drawn from pre-update states only: the leader's new
        # state cannot leak into the follower's input within one cycle.
        m, _, _ = cycle(dynamics._initial_state(2, 0), pair(), 90.0, 0.0, 0.1,
                        np.random.default_rng(4))
        assert list(m) == [0.9, 0.1]

    def test_leaves_input_unchanged(self):
        m0 = dynamics._initial_state(4, 0)
        before = m0.copy()
        cycle(m0, star4(), 60.0, 0.0, 0.1, np.random.default_rng(5))
        assert np.array_equal(m0, before)

    def test_alpha_validation(self):
        for bad in (0.0, 1.5, -0.1):
            with pytest.raises(ValueError, match="alpha"):
                simulate_run(pair(), 0, 60.0, 0.0, np.random.default_rng(0), alpha=bad)

    def test_max_iters_validation(self):
        for bad in (0, -5):
            with pytest.raises(ValueError, match="^max_iters must be at least 1"):
                simulate_run(pair(), 0, 60.0, 0.0, np.random.default_rng(0), max_iters=bad)

    def test_rng_validation(self):
        # The run steps its generator with advance, one output per double;
        # Philox's advance counts blocks of outputs, and MT19937 has none.
        for bits in (np.random.Philox(0), np.random.MT19937(0)):
            with pytest.raises(ValueError, match="^rng must be a PCG64 generator"):
                simulate_run(pair(), 0, 60.0, 0.0, np.random.Generator(bits))

    def test_beta_validation(self):
        # A beta outside [-0.5, 0.5], not finite, or neither a scalar nor
        # one value per node is refused before the run starts.
        for bad in (np.nan, 0.9, -0.6, np.inf, [0.0, np.nan, 0.0, 0.0],
                    np.zeros(3), np.zeros(5), np.zeros((4, 1))):
            with pytest.raises(ValueError, match="beta"):
                simulate_run(star4(), 0, 60.0, bad, np.random.default_rng(0))
        for good in (-0.5, 0.5, [0.5, -0.5, 0.0, 0.1]):
            simulate_run(star4(), 0, 60.0, good, np.random.default_rng(0), max_iters=2)

    @given(
        seed=st.integers(0, 2**32 - 1),
        phi=st.floats(min_value=45.0, max_value=90.0),
        alpha=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_bounds_and_memory_bound(self, seed, phi, alpha):
        rng = np.random.default_rng(seed)
        net = generate_pa_network(32, 2, rng)
        beta = rng.uniform(-0.5, 0.5, 32)
        m = rng.random(32)
        for _ in range(5):
            prev = m
            m, _, _ = cycle(m, net, phi, beta, alpha, rng)
            assert np.all(m >= 0.0) and np.all(m <= 1.0)
            assert np.all(np.abs(m - prev) <= alpha + 1e-15)


class TestRunToCompletion:
    def test_unbiased_categorical_trace(self):
        # Fully deterministic at phi=90 with no biases: the innovator emits
        # 1 for seven cycles, converts no one (any neighbor tops out at
        # (1 - 0.9^7)/degree < 0.5), and everything then decays below the
        # 1e-8 consensus threshold at cycle ceil(ln 1e-8 / ln 0.9) = 175.
        rng = np.random.default_rng(0)
        net = generate_pa_network(64, 2, rng)
        out = run_to_completion(net, 5, 90.0, np.zeros(64), rng)
        assert out.t_final == 175
        assert out.terminated_by == CONSENSUS_ZERO
        assert out.outcome_label == "extinction"
        assert out.mbar_final < 1e-8

    def test_neighbor_ceiling_while_only_innovator_speaks(self):
        # While only the innovator has ever emitted 1, any neighbor obeys
        # m_j(t) <= (1 - 0.9^t)/degree_j.
        rng = np.random.default_rng(1)
        net = generate_pa_network(64, 2, rng)
        innovator = 3
        m = dynamics._initial_state(net.n, innovator)
        for t in range(1, 8):
            m, _, _ = cycle(m, net, 90.0, 0.0, 0.1, rng)
            cap = (1.0 - 0.9**t)
            for j in net.neighbors(innovator):
                assert m[j] <= cap / net.degrees[j] + 1e-12
        assert all(m[j] < 0.5 for j in net.neighbors(innovator))

    def test_all_ones_closes_at_consensus_one(self):
        # Fully deterministic: at phi = 90 with beta = -0.5 the threshold
        # sits at 0, where the rule keeps the value 0, so exactly the nodes
        # with m > 0 emit 1.  The hub innovator converts its leaves in the
        # first cycle; from then on every 1 - m_i shrinks by 0.9 per cycle,
        # the leaves' last, from 0.9 after cycle 1, and 0.9^175 < 1e-8 <
        # 0.9^174.
        outcome, m_final = simulate_run(star4(), 0, 90.0, -0.5, np.random.default_rng(2),
                                        max_iters=500)
        assert outcome.terminated_by == CONSENSUS_ONE
        assert outcome.t_final == 175
        assert np.all(m_final > 1 - 1e-8)
        assert outcome.outcome_label == "completion"

    def test_max_iters_cap(self):
        rng = np.random.default_rng(3)
        net = generate_pa_network(64, 2, rng)
        out = run_to_completion(net, 0, 45.0, np.zeros(64), rng, max_iters=3)
        assert out.t_final == 3
        assert out.terminated_by == MAX_ITERATIONS

    def test_determinism(self):
        net = generate_pa_network(64, 2, np.random.default_rng(4))
        beta = np.random.default_rng(5).uniform(-0.5, 0.5, 64)
        a = run_to_completion(net, 1, 70.0, beta, np.random.default_rng(99))
        b = run_to_completion(net, 1, 70.0, beta, np.random.default_rng(99))
        assert a == b

    def test_trace_matches_outcome(self):
        rng = np.random.default_rng(6)
        net = generate_pa_network(32, 2, rng)
        trace: list[float] = []
        outcome, m_final = simulate_run(net, 0, 90.0, np.zeros(32), rng, mbar_trace=trace)
        assert len(trace) == outcome.t_final + 1
        assert trace[0] == pytest.approx(1 / 32)
        assert trace[-1] == pytest.approx(outcome.mbar_final)
        assert float(m_final.mean()) == outcome.mbar_final

    def test_rejects_isolated_nodes(self):
        net = from_edges(3, [(0, 1)])  # node 2 isolated
        with pytest.raises(ValueError):
            run_to_completion(net, 0, 60.0, 0.0, np.random.default_rng(0))


def reference_run(net, m0, phi_deg, beta, rng, max_iters, alpha=DEFAULT_ALPHA):
    """Reference run written from the update rule, without the fast-forward.

    Each cycle draws every signal, sums each node's neighbour signals
    through a dense adjacency matrix and scales the sum by ``1.0/deg``.
    Sums of 0/1 signals are exact in any order, so the states round as
    in ``simulate_run``, which sums them with one ``bincount`` over
    ``Network.owner`` and scales by ``1/deg``.
    Returns the final states, the cycle count, the exit and the mean trace.
    """
    adj = np.zeros((net.n, net.n))
    for i in range(net.n):
        adj[i, net.neighbors(i)] = 1.0
    inv_deg = 1.0 / adj.sum(axis=1)
    rule = production_rule(phi_deg, beta)
    m = m0.copy()
    trace = [float(m.mean())]
    terminated_by = MAX_ITERATIONS
    t = 0
    while t < max_iters:
        s = (rng.random(net.n) < rule(m)).astype(np.float64)
        m = alpha * ((adj @ s) * inv_deg) + (1.0 - alpha) * m
        t += 1
        trace.append(float(m.mean()))
        if m.max() < CONSENSUS_EPS:
            terminated_by = CONSENSUS_ZERO
            break
        if m.min() > 1.0 - CONSENSUS_EPS:
            terminated_by = CONSENSUS_ONE
            break
    return m, t, terminated_by, trace


def assert_same_run(net, innovator, phi_deg, beta, rng, max_iters, alpha=DEFAULT_ALPHA,
                    start=None):
    """simulate_run equals reference_run bit for bit.

    ``start`` is the initial state when a test replaces the single
    innovator.  Returns the outcome.
    """
    if start is None:
        start = np.zeros(net.n)
        start[innovator] = 1.0
    ref_rng = copy.deepcopy(rng)
    trace: list[float] = []
    outcome, m_final = simulate_run(net, innovator, phi_deg, beta, rng, alpha=alpha,
                                    max_iters=max_iters, mbar_trace=trace)
    ref_m, ref_t, ref_terminated_by, ref_trace = reference_run(
        net, start, phi_deg, beta, ref_rng, max_iters, alpha)
    assert np.array_equal(m_final, ref_m)
    assert outcome.t_final == ref_t
    assert outcome.terminated_by == ref_terminated_by
    assert outcome.mbar_final == float(ref_m.mean())
    assert trace == ref_trace
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return outcome


@st.composite
def step_rule_starts(draw):
    """A PA graph, a start state and per-node biases for the phi = 90 rule.

    Each node gets a signal bit; ``v`` is the neighbour input the bits give
    it.  Thresholds lie on each node's bit side of its input, exactly at the
    input, or exactly where the node's first update from its input lands.
    Starts lie at the input, at the bit's corner or at a random state.

    Half the draws on graphs that allow it build a settled state with one
    exception: node ``i`` hears k of its d neighbours, and k/d is an input
    whose update rounds up by one ulp.  Node ``i`` then lands exactly on its
    threshold while its input and its previous state lie below it.
    """
    n = draw(st.integers(8, 64))
    net = generate_pa_network(n, draw(st.integers(1, 3)),
                              np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    inv_deg = 1.0 / net.degrees.astype(np.float64)

    def per_node(strategy):
        return np.array(draw(st.lists(strategy, min_size=n, max_size=n)))

    def landing(v):
        return DEFAULT_ALPHA * v + (1.0 - DEFAULT_ALPHA) * v

    u = per_node(st.integers(1, 99)) / 100.0
    rounds_up = [(i, k) for i in range(n) for k in range(int(net.degrees[i]))
                 if k * inv_deg[i] < landing(k * inv_deg[i])]
    if rounds_up and draw(st.booleans()):
        i, k = draw(st.sampled_from(rounds_up))
        bits = np.ones(n, dtype=bool)
        bits[i] = False
        bits[draw(st.permutations(net.neighbors(i)))[:int(net.degrees[i]) - k]] = False
        thr_mode = np.where(np.arange(n) == i, "landing", "side")
        start_mode = np.full(n, "input")
    else:
        bits = per_node(st.booleans())
        thr_mode = per_node(st.sampled_from(["side", "input", "landing"]))
        start_mode = per_node(st.sampled_from(["input", "corner", "random"]))
    v = np.add.reduceat(bits[net.indices].astype(np.float64), net.indptr[:-1]) * inv_deg
    side = np.where(bits, v * u, v + (1.0 - v) * u)
    thr = np.select([thr_mode == "input", thr_mode == "landing"], [v, landing(v)], side)
    start = np.select([start_mode == "input", start_mode == "corner"],
                      [v, bits.astype(np.float64)], u)
    return net, start, np.clip(thr - 0.5, -0.5, 0.5)


@st.composite
def interior_starts(draw):
    """A PA graph, an angle (45 or interior), random start states and a
    scalar or per-node bias."""
    n = draw(st.integers(8, 64))
    net = generate_pa_network(n, draw(st.integers(1, 3)),
                              np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    phi = draw(st.one_of(st.just(45.0),
                         st.floats(45.0, 90.0, exclude_min=True, exclude_max=True)))
    bias = st.floats(-0.5, 0.5)
    beta = draw(st.one_of(bias, st.lists(bias, min_size=n, max_size=n).map(np.array)))
    start = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    return net, phi, start, beta


def recorded_settled(monkeypatch):
    """Patch ``dynamics._settled`` to record its answers; returns the list."""
    checks = []
    settled = dynamics._settled

    def recording_settled(*args):
        checks.append(settled(*args))
        return checks[-1]

    monkeypatch.setattr(dynamics, "_settled", recording_settled)
    return checks


class TestAbsorbingExit:
    @pytest.mark.parametrize("kind", ["nearby", "random", "hubs", "unbiased"])
    def test_step_rule_matches_step_loop(self, kind):
        # 1500 cycles lie well past the cycle (350-481 in sampled runs) by which
        # capped phi = 90 runs stop changing, so capped runs take the exit.
        for run_index in range(3):
            config = ScenarioConfig(kind=kind, phi_deg=90.0, innovator_degree=8)
            _, rng, net, innovator, _, beta = prepare_run(config, 20260810, run_index)
            assert_same_run(net, innovator, 90.0, beta, rng, 1500)

    def test_no_exit_while_a_node_sits_at_its_threshold(self, monkeypatch):
        # Path a2 - a - k - b - b2.  Node k sits exactly on its threshold
        # 0.5, so its signal is a coin flip.  When it emits 1, every state
        # is reproduced bit for bit; when it emits 0, a and b move.  The run
        # must keep drawing, even after cycles that changed nothing.
        net = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        beta = np.array([0.0, 0.0, 0.0, 0.2, 0.0])
        start = np.array([1.0, 1.0, 0.5, 0.5, 0.0])
        monkeypatch.setattr(dynamics, "_initial_state", lambda n, innovator: start.copy())
        rng = np.random.default_rng(0)
        first, _, _ = cycle(start.copy(), net, 90.0, beta, DEFAULT_ALPHA, copy.deepcopy(rng))
        assert np.array_equal(first, start)
        assert_same_run(net, 0, 90.0, beta, rng, 40, start=start)

    def test_settled_state_landing_on_its_threshold_resumes_full_cycles(self, monkeypatch):
        # Hub 0 hears three neighbours that emit 1 (each held up by a leaf
        # partner that emits 1) and two leaves that emit 0, so its input
        # is v = 3 * (1/5).  Its threshold is 0.1 v + 0.9 v, which rounds
        # one ulp above v, and its start one ulp below v updates exactly
        # to v.  With blocks of one row the run settles after cycle 1; the
        # first settled update lands the hub on its threshold, where its
        # signal is a draw, so full cycles must resume.
        net = from_edges(9, [(0, 1), (0, 2), (0, 3), (0, 7), (0, 8), (1, 4), (2, 5), (3, 6)])
        v = 3 * (1.0 / 5)
        thr = DEFAULT_ALPHA * v + (1.0 - DEFAULT_ALPHA) * v
        assert thr == np.nextafter(v, 1.0)
        start = np.array([np.nextafter(v, 0.0), 1, 1, 1, 1, 1, 1, 0, 0], dtype=np.float64)
        beta = np.array([thr - 0.5, -0.4, -0.4, -0.4, 0, 0, 0, 0, 0], dtype=np.float64)
        monkeypatch.setattr(dynamics, "_initial_state", lambda n, innovator: start.copy())
        monkeypatch.setattr(dynamics, "_MAX_DRAW", 9)
        checks = recorded_settled(monkeypatch)
        assert_same_run(net, 0, 90.0, beta, np.random.default_rng(0), 200, start=start)
        assert checks[0] and len(checks) > 1

    def test_interior_angle_never_exits(self):
        rng = np.random.default_rng(7)
        net = generate_pa_network(64, 2, rng)
        beta = rng.uniform(-0.5, 0.5, 64)
        assert_same_run(net, 0, 89.0, beta, rng, 300)

    @given(case=step_rule_starts(), seed=st.integers(0, 2**32 - 1),
           max_iters=st.integers(50, 2000), rows=st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_fast_forward_matches_reference_loop(self, case, seed, max_iters, rows):
        # Settled mode starts at the end of a full block, so the block size
        # sets the cycle at which a run that settles enters it.
        net, start, beta = case
        with mock.patch.object(dynamics, "_initial_state", lambda n, innovator: start.copy()), \
                mock.patch.object(dynamics, "_MAX_DRAW", rows * net.n):
            assert_same_run(net, 0, 90.0, beta, np.random.default_rng(seed), max_iters,
                            start=start)

    @pytest.mark.parametrize("rows", [1, 3, 8, None])
    def test_full_block_checks_settled_at_most_once(self, monkeypatch, rows):
        # A full block draws its uniforms first and checks its signals at
        # most once, after its last row, so every _settled call directly
        # follows a draw.  ``rows`` None keeps the default 32 rows of 256.
        config = ScenarioConfig(kind="nearby", phi_deg=90.0, innovator_degree=8)
        _, rng, net, innovator, _, beta = prepare_run(config, 20260810, 0)
        if rows is not None:
            monkeypatch.setattr(dynamics, "_MAX_DRAW", rows * net.n)
        events = []
        settled = dynamics._settled

        def recording_settled(*args):
            events.append("check")
            return settled(*args)

        class DrawRecorder:
            bit_generator = rng.bit_generator

            def random(self, size):
                events.append("draw")
                return rng.random(size)

        monkeypatch.setattr(dynamics, "_settled", recording_settled)
        simulate_run(net, innovator, 90.0, beta, DrawRecorder(), max_iters=1500)
        assert events.count("check") > 1
        assert all(a == "draw" for a, b in zip(["start"] + events, events) if b == "check")


# With dynamics._MAX_DRAW at 8 rows of n, full cycles from the start take
# blocks ending after cycles 8, 16, 24, ..., 120.  At phi = 90 the signals
# are checked at the end of a full block, so a run settled from the start
# enters settled mode after cycle 8 and takes its settled cycles from
# blocks ending after cycles 16, 24, ..., 120 as well.
STOPS_AROUND_BLOCK_ENDS = [1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 119, 120, 121]


class TestBlockDraws:
    @pytest.mark.parametrize("stop", STOPS_AROUND_BLOCK_ENDS)
    def test_consensus_inside_and_at_block_ends(self, monkeypatch, stop):
        # At phi = 60 with beta = 0.5, a state x emits 1 with probability
        # about x/20, so with these seeds no signal fires and every state
        # shrinks by 0.9 a cycle.  Starting at 1e-8 / 0.9**(stop - 0.5), the states
        # first fall below the consensus bound at cycle ``stop``.
        net = generate_pa_network(16, 2, np.random.default_rng(stop))
        start = np.full(16, CONSENSUS_EPS / 0.9 ** (stop - 0.5))
        monkeypatch.setattr(dynamics, "_initial_state", lambda n, innovator: start.copy())
        monkeypatch.setattr(dynamics, "_MAX_DRAW", 8 * 16)
        outcome = assert_same_run(net, 0, 60.0, 0.5, np.random.default_rng(stop),
                                  1000, start=start)
        assert (outcome.t_final, outcome.terminated_by) == (stop, CONSENSUS_ZERO)

    @pytest.mark.parametrize("stop", [2, 8, 9, 10, 16, 17, 18, 24, 25, 26, 120, 121, 122])
    def test_settled_consensus_inside_and_at_block_ends(self, monkeypatch, stop):
        # The states of the test above at phi = 90 with beta = 0.5: every
        # threshold is 1, so every signal is 0 and the signals are settled
        # from cycle 1.  Stops 2 and 8 come inside and at the end of the
        # first full block, before the one check of its signals; from
        # cycle 9 on settled cycles reach consensus at the first row (9,
        # 17, 25, 121), the last row (16, 24, 120) or inside (10, 18, 26,
        # 122) of a settled block.
        net = generate_pa_network(16, 2, np.random.default_rng(stop))
        start = np.full(16, CONSENSUS_EPS / 0.9 ** (stop - 0.5))
        monkeypatch.setattr(dynamics, "_initial_state", lambda n, innovator: start.copy())
        monkeypatch.setattr(dynamics, "_MAX_DRAW", 8 * 16)
        checks = recorded_settled(monkeypatch)
        outcome = assert_same_run(net, 0, 90.0, 0.5, np.random.default_rng(stop),
                                  1000, start=start)
        assert (outcome.t_final, outcome.terminated_by) == (stop, CONSENSUS_ZERO)
        assert checks == ([True] if stop > 8 else [])

    @pytest.mark.parametrize("stop", STOPS_AROUND_BLOCK_ENDS)
    def test_consensus_one_inside_and_at_block_ends(self, monkeypatch, stop):
        # The mirror image of test_consensus_inside_and_at_block_ends: with
        # beta = -0.5, a state x just below 1 emits 0 with probability about
        # (1 - x)/20, so with these seeds every signal is 1 and each state's
        # distance to 1 shrinks by 0.9 a cycle, first falling below the
        # consensus bound at cycle ``stop``.
        net = generate_pa_network(16, 2, np.random.default_rng(stop))
        start = np.full(16, 1.0 - CONSENSUS_EPS / 0.9 ** (stop - 0.5))
        monkeypatch.setattr(dynamics, "_initial_state", lambda n, innovator: start.copy())
        monkeypatch.setattr(dynamics, "_MAX_DRAW", 8 * 16)
        outcome = assert_same_run(net, 0, 60.0, -0.5, np.random.default_rng(stop),
                                  1000, start=start)
        assert (outcome.t_final, outcome.terminated_by) == (stop, CONSENSUS_ONE)

    @given(case=interior_starts(), seed=st.integers(0, 2**32 - 1),
           max_iters=st.integers(50, 2000), rows=st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_block_stop_matches_reference_loop(self, case, seed, max_iters, rows):
        # About half of these runs reach consensus; one that stops inside a
        # block has had the block's later rows computed and then discarded.
        net, phi, start, beta = case
        with mock.patch.object(dynamics, "_initial_state", lambda n, innovator: start.copy()), \
                mock.patch.object(dynamics, "_MAX_DRAW", rows * net.n):
            assert_same_run(net, 0, phi, beta, np.random.default_rng(seed), max_iters,
                            start=start)

    @pytest.mark.parametrize("settle", STOPS_AROUND_BLOCK_ENDS)
    def test_step_rule_settles_inside_and_at_block_ends(self, monkeypatch, settle):
        # Pair a - b at phi = 90.  a starts at 0.5 and emits 1 while its
        # state 0.5 * 0.9**(t - 1) exceeds its threshold 0.5 * 0.9**(settle
        # - 1.5); b's threshold is 1, so b emits 0 and hears a's 1 exactly
        # on its threshold.  Nothing is settled until a emits 0, from cycle
        # ``settle`` on, and the check at the end of the block that holds
        # cycle ``settle`` is the first to find it; settled cycles then
        # decay both to consensus.
        net = pair()
        beta = np.array([0.5 * 0.9 ** (settle - 1.5) - 0.5, 0.5])
        start = np.array([0.5, 0.0])
        monkeypatch.setattr(dynamics, "_initial_state", lambda n, innovator: start.copy())
        monkeypatch.setattr(dynamics, "_MAX_DRAW", 8 * 2)
        checks = recorded_settled(monkeypatch)
        outcome = assert_same_run(net, 0, 90.0, beta, np.random.default_rng(settle),
                                  1000, start=start)
        assert checks == [False] * ((settle - 1) // 8) + [True]
        assert outcome.terminated_by == CONSENSUS_ZERO


class TestNeutralMartingale:
    # At phi = 45 the rule is the identity, so the degree-weighted mean state
    # W = sum_i d_i m_i / 2E is a martingale: E[W_T] = W_0 = d / 2E on any
    # network and under any stopping rule.  The bound, four standard errors
    # of the mean over 2000 replicas, was fixed before the test first ran.
    @pytest.mark.parametrize("degree", [4, 8, 16])
    def test_degree_weighted_mean_is_a_martingale(self, degree):
        config = ScenarioConfig(kind="neutral", phi_deg=45.0, innovator_degree=degree)
        _, rng, net, innovator, _, beta = prepare_run(config, 20260810, 0)
        two_e = float(net.degrees.sum())
        w = np.array([
            net.degrees @ simulate_run(net, innovator, 45.0, beta, rng, max_iters=20)[1]
            for _ in range(2000)
        ]) / two_e
        assert abs(w.mean() - degree / two_e) <= 4.0 * w.std(ddof=1) / np.sqrt(w.size)


class TestClassifyOutcome:
    def test_nested_thresholds(self):
        cases = [
            (0.0, 0), (5e-5, 0), (2e-4, 1), (0.49, 1), (0.5, 2), (0.56, 2),
            (1.0 - 2e-4, 2), (1.0 - 1e-5, 3), (1.0, 3),
        ]
        for mbar, level in cases:
            assert outcome_level(mbar) == level
            assert RunOutcome(mbar, 100, MAX_ITERATIONS).outcome_label == OUTCOMES[level]

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_flags_and_label_follow_thresholds(self, mbar):
        flags = (mbar > SURVIVAL_MIN, mbar >= DOMINANCE_MIN, mbar >= COMPLETION_MIN)
        assert flags[0] >= flags[1] >= flags[2]
        assert outcome_level(mbar) == sum(flags)
        label = ("extinction", "survival", "dominance", "completion")[sum(flags)]
        assert RunOutcome(mbar, 1, MAX_ITERATIONS).outcome_label == label

    def test_level_of_an_array(self):
        # Each threshold and its neighbouring floats, and NaN, levelled
        # elementwise as single outcomes label them.
        mbar = [0.0, 1.0, np.nan]
        for x in (SURVIVAL_MIN, DOMINANCE_MIN, COMPLETION_MIN):
            mbar += [np.nextafter(x, 0.0), x, np.nextafter(x, 1.0)]
        levels = outcome_level(np.array(mbar))
        assert levels.tolist() == [0, 3, 0, 0, 0, 1, 1, 2, 2, 2, 3, 3]
        assert [OUTCOMES[k] for k in levels] == [
            RunOutcome(m, 1, MAX_ITERATIONS).outcome_label for m in mbar
        ]

    def test_consensus_extremes(self):
        assert RunOutcome(1e-9, 175, CONSENSUS_ZERO).outcome_label == "extinction"
        assert RunOutcome(1.0 - 1e-9, 300, CONSENSUS_ONE).outcome_label == "completion"

    def test_is_frozen_record(self):
        out = RunOutcome(0.5, 1, MAX_ITERATIONS)
        assert isinstance(out, RunOutcome)
        with pytest.raises(AttributeError):
            out.mbar_final = 0.0

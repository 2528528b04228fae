"""Decision-function families: frozen oracle values and properties.

The oracle below evaluates the raw exponential formulas with mpmath at 50
digits, independently of the package's log-odds evaluation path.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clogsim.decision import (
    IDENTITY_CONTINUUM,
    FixedPointContinuum,
    clog_eval,
    find_fixed_points,
    logistic_eval,
    phi_to_tau,
    production_rule,
    tabulate_curve,
)
from clogsim.dynamics import simulate_run
from clogsim.network import from_edges
from clogsim.scenarios import ScenarioConfig

mp.mp.dps = 50


def mp_tau(phi_deg, family):
    t = mp.tan(mp.radians(phi_deg))
    return 1 / (2 * (t - 1)) if family == "clog" else 1 / (2 * t)


def mp_clog(m, phi_deg, beta):
    tau = mp_tau(phi_deg, "clog")
    m, beta = mp.mpf(m), mp.mpf(beta)
    num = m * mp.e ** ((m - beta) / tau)
    return num / (num + (1 - m) * mp.e ** ((1 - m + beta) / tau))

def mp_logistic(m, phi_deg, beta):
    tau = mp_tau(phi_deg, "logistic")
    m, beta = mp.mpf(m), mp.mpf(beta)
    num = mp.e ** ((m - beta) / tau)
    return num / (num + mp.e ** ((1 - m + beta) / tau))


# Frozen with the mpmath oracle above before the implementation was built.
TAU_CLOG_60 = 0.6830127018922193       # 1/(2 (tan 60 - 1)) = (sqrt 3 + 1)/4
TAU_LOGISTIC_60 = 0.2886751345948129   # 1/(2 tan 60)
CLOG_60_AT_025 = 0.13815929849115439
LOGISTIC_60_AT_1 = 0.9696489096705756
LOGISTIC_60_FP_LOW = 0.039536859501121338
LOGISTIC_60_FP_HIGH = 0.960463140498878662

angles_clog = st.floats(min_value=45.0, max_value=90.0, exclude_min=True, exclude_max=True)
biases = st.floats(min_value=-0.5, max_value=0.5)
probs = st.floats(min_value=0.0, max_value=1.0)


class TestPhiToTau:
    def test_clog_endpoints(self):
        assert phi_to_tau(45.0, "clog") == math.inf
        assert phi_to_tau(90.0, "clog") == 0.0

    def test_logistic_endpoints(self):
        assert phi_to_tau(0.0, "logistic") == math.inf
        assert phi_to_tau(90.0, "logistic") == 0.0

    def test_frozen_values(self):
        assert phi_to_tau(60.0, "clog") == pytest.approx(TAU_CLOG_60, rel=1e-12)
        assert phi_to_tau(60.0, "logistic") == pytest.approx(TAU_LOGISTIC_60, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            phi_to_tau(40.0, "clog")
        with pytest.raises(ValueError):
            phi_to_tau(-1.0, "logistic")
        with pytest.raises(ValueError):
            phi_to_tau(91.0, "clog")
        with pytest.raises(ValueError):
            phi_to_tau(60.0, "softmax")

    @given(phi=angles_clog)
    def test_tau_finite_positive_inside_range(self, phi):
        tau = phi_to_tau(phi, "clog")
        assert math.isfinite(tau) and tau > 0

    def test_roundtrip_against_angle(self):
        # tan(phi) recovered from tau for both families
        for phi in (50.0, 60.0, 75.0, 89.0):
            assert 1 + 1 / (2 * phi_to_tau(phi, "clog")) == pytest.approx(
                math.tan(math.radians(phi)), rel=1e-12
            )
            assert 1 / (2 * phi_to_tau(phi, "logistic")) == pytest.approx(
                math.tan(math.radians(phi)), rel=1e-12
            )


class TestClogEval:
    def test_frozen_interior_value(self):
        assert clog_eval(0.25, 60.0) == pytest.approx(CLOG_60_AT_025, rel=1e-13)

    def test_endpoints_exact(self):
        for phi in (46.0, 60.0, 75.0, 89.0, 90.0):
            for beta in (-0.4, 0.0, 0.4):
                assert clog_eval(0.0, phi, beta) == 0.0
                assert clog_eval(1.0, phi, beta) == 1.0

    def test_interior_fixed_point(self):
        for phi in (50.0, 60.0, 85.0):
            for beta in (-0.3, 0.0, 0.25):
                m = 0.5 + beta
                assert abs(clog_eval(m, phi, beta) - m) < 1e-12

    def test_identity_at_45(self):
        grid = np.linspace(0.0, 1.0, 257)
        out = clog_eval(grid, 45.0, 0.3)
        assert np.array_equal(out, grid)

    def test_identity_returns_a_copy(self):
        grid = np.linspace(0.0, 1.0, 5)
        out = clog_eval(grid, 45.0, 0.0)
        assert not np.shares_memory(out, grid)

    def test_step_at_90(self):
        assert clog_eval(0.49, 90.0, 0.0) == 0.0
        assert clog_eval(0.5, 90.0, 0.0) == 0.5
        assert clog_eval(0.51, 90.0, 0.0) == 1.0
        assert clog_eval(0.69, 90.0, 0.2) == 0.0
        assert clog_eval(0.7, 90.0, 0.2) == pytest.approx(0.7, abs=1e-15)
        assert clog_eval(0.71, 90.0, 0.2) == 1.0

    def test_matches_oracle_on_grid(self):
        for phi in (46.0, 55.0, 70.0, 89.0):
            for beta in (-0.4, -0.1, 0.0, 0.3):
                for m in (0.001, 0.2, 0.5, 0.77, 0.999):
                    expected = float(mp_clog(m, phi, beta))
                    assert clog_eval(m, phi, beta) == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_domain_errors(self):
        for bad in (-0.1, 1.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                clog_eval(bad, 60.0)
        with pytest.raises(ValueError):
            clog_eval(0.5, 30.0)  # below the clog family range

    @given(phi=angles_clog, beta=biases, m=probs)
    @settings(max_examples=200)
    def test_output_is_probability(self, phi, beta, m):
        out = clog_eval(m, phi, beta)
        assert 0.0 <= out <= 1.0

    @given(phi=angles_clog, beta=biases, m=probs)
    @settings(max_examples=200)
    def test_symmetry_identity(self, phi, beta, m):
        a = clog_eval(m, phi, beta)
        b = clog_eval(1.0 - m, phi, -beta)
        assert abs(a + b - 1.0) < 1e-12

    @given(phi=st.floats(min_value=46.0, max_value=80.0), beta=biases)
    @settings(max_examples=100)
    def test_strictly_increasing(self, phi, beta):
        # Strict in exact arithmetic for every tau > 0.  Angles are kept
        # below 81 deg so the output stays away from 1.0, where adjacent grid
        # values can lie less than one ulp apart; the acceptance suite covers
        # the full sweep and admits a tie there only where the oracle's exact
        # increment is below one ulp.
        grid = np.linspace(0.0, 1.0, 101)
        out = clog_eval(grid, phi, beta)
        assert np.all(np.diff(out) > 0.0)

    def test_resolves_one_ulp_below_one(self):
        # The exact values differ by 1.64 ulp here; a kernel that rounds
        # 1 + e^-L before dividing returns the same multiple of 2**-52 for
        # both.
        assert clog_eval(0.978, 84.0, -0.4) < clog_eval(0.979, 84.0, -0.4)

    def test_inflection_slope_is_tan_phi_unbiased(self):
        h = 1e-6
        for phi in (46.0, 60.0, 75.0, 89.0):
            slope = (clog_eval(0.5 + h, phi, 0.0) - clog_eval(0.5 - h, phi, 0.0)) / (2 * h)
            assert slope == pytest.approx(math.tan(math.radians(phi)), rel=1e-6)

    def test_fixed_point_slope_with_bias(self):
        # At the interior fixed point 0.5 + beta the slope follows from the
        # defining formula: 1 + 2 (0.25 - beta^2) / tau.  It reduces to
        # tan(phi) only when beta = 0.
        h = 1e-6
        for phi in (50.0, 60.0, 80.0):
            tau = phi_to_tau(phi, "clog")
            for beta in (-0.4, -0.2, 0.2, 0.4):
                x = 0.5 + beta
                slope = (clog_eval(x + h, phi, beta) - clog_eval(x - h, phi, beta)) / (2 * h)
                assert slope == pytest.approx(1 + 2 * (0.25 - beta**2) / tau, rel=1e-6)


class TestLogisticEval:
    def test_frozen_value(self):
        assert logistic_eval(1.0, 60.0) == pytest.approx(LOGISTIC_60_AT_1, rel=1e-13)

    def test_symmetry_point(self):
        for phi in (10.0, 45.0, 60.0, 89.0):
            assert logistic_eval(0.5, phi) == pytest.approx(0.5, abs=1e-15)

    def test_step_at_90(self):
        assert logistic_eval(0.7, 90.0, 0.0) == 1.0
        assert logistic_eval(0.3, 90.0, 0.0) == 0.0
        assert logistic_eval(0.5, 90.0, 0.0) == 0.5
        assert logistic_eval(0.7, 90.0, 0.2) == 0.5  # threshold value stays 0.5

    def test_constant_at_0(self):
        grid = np.linspace(0, 1, 11)
        assert np.all(logistic_eval(grid, 0.0) == 0.5)

    def test_boundary_repulsion(self):
        # No fixed point in the corners for interior angles.  Beyond about
        # 85 deg the true gap 1 - sigma(1/tau) drops below float64
        # resolution, so the check stays where it is representable.
        for phi in (50.0, 60.0, 75.0, 85.0):
            assert logistic_eval(1.0, phi) < 1.0
            assert logistic_eval(0.0, phi) > 0.0

    def test_matches_oracle_on_grid(self):
        for phi in (20.0, 45.0, 60.0, 89.0):
            for beta in (-0.3, 0.0, 0.2):
                for m in (0.0, 0.25, 0.5, 0.9, 1.0):
                    expected = float(mp_logistic(m, phi, beta))
                    assert logistic_eval(m, phi, beta) == pytest.approx(expected, rel=1e-12)

    def test_slope_at_center_is_tan_phi(self):
        h = 1e-6
        for phi in (30.0, 45.0, 60.0, 85.0):
            slope = (logistic_eval(0.5 + h, phi) - logistic_eval(0.5 - h, phi)) / (2 * h)
            assert slope == pytest.approx(math.tan(math.radians(phi)), rel=1e-6)


class TestProductionRule:
    def test_matches_eval(self):
        rng = np.random.default_rng(7)
        m = rng.random(64)
        beta = rng.uniform(-0.5, 0.5, 64)
        for phi in (45.0, 60.0, 89.9, 90.0):
            rule = production_rule(phi, beta)
            expected = np.array([clog_eval(mi, phi, bi) for mi, bi in zip(m, beta)])
            # One rule factory behind both: they agree bit for bit.
            assert np.array_equal(rule(m), expected)

    def test_rejects_bad_angle(self):
        with pytest.raises(ValueError):
            production_rule(30.0, 0.0)


def reference_sigmoid(x):
    """Two-mask sigmoid: each sign exponentiates only its own elements."""
    out = np.empty_like(x)
    pos = x >= 0
    e = np.exp(-x[pos])
    out[pos] = 1.0 - e / (1.0 + e)
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_clog_kernel(m, tau, beta):
    """Log-odds clog on the interior only; 0 and 1 are copied through."""
    out = np.array(m, copy=True)
    interior = (m > 0.0) & (m < 1.0)
    mi = m[interior]
    bi = beta[interior] if np.ndim(beta) else beta
    L = np.log(mi / (1.0 - mi)) + (2.0 * mi - 1.0 - 2.0 * bi) / tau
    out[interior] = reference_sigmoid(L)
    return out


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


# Exact endpoints, values within 1e-12 of 1 and subnormals, beside the bulk.
kernel_probs = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5]),
    probs,
    st.floats(min_value=1.0 - 1e-12, max_value=1.0),
    st.floats(min_value=0.0, max_value=2.2250738585072014e-308, allow_subnormal=True),
)
kernel_angles = st.one_of(angles_clog, st.just(89.9999))
# A signed zero bias meets the zero drift of m = 0.5.
kernel_biases = st.one_of(st.just(-0.0), biases)


class TestKernelReference:
    @given(phi=kernel_angles, m=st.lists(kernel_probs, min_size=1, max_size=64),
           data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_masked_kernel(self, phi, m, data):
        m = np.array(m)
        beta = data.draw(kernel_biases)
        betas = np.array(data.draw(st.lists(kernel_biases, min_size=m.size, max_size=m.size)))
        tau = phi_to_tau(phi, "clog")
        expected = reference_clog_kernel(m, tau, beta)
        assert same_bits(production_rule(phi, beta)(m), expected)
        assert same_bits(production_rule(phi, betas)(m), reference_clog_kernel(m, tau, betas))
        assert same_bits(clog_eval(m, phi, beta), expected)
        assert same_bits(clog_eval(float(m[0]), phi, beta), expected[0])
        tau_l = phi_to_tau(phi, "logistic")
        assert same_bits(
            logistic_eval(m, phi, beta),
            reference_sigmoid((2.0 * m - 1.0 - 2.0 * beta) / tau_l),
        )

    def test_endpoints_raise_no_warning(self):
        m = np.array([0.0, 1.0, 0.0, 1.0])
        betas = np.array([-0.4, -0.4, 0.4, 0.4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for phi in (46.0, 60.0, 89.9999):
                assert np.array_equal(production_rule(phi, betas)(m), m)
                assert np.array_equal(clog_eval(m, phi, 0.2), m)
                assert clog_eval(0.0, phi, -0.2) == 0.0
                assert clog_eval(1.0, phi, -0.2) == 1.0

    def test_rule_leaves_callers_error_state(self):
        # The kernel silences divides for its own call only: a caller that
        # raises on divides keeps doing so after the rule returns.
        m = np.array([0.0, 1.0])
        with np.errstate(divide="raise"):
            for phi in (46.0, 60.0, 89.9999):
                assert np.array_equal(production_rule(phi, 0.1)(m), m)
            assert np.geterr()["divide"] == "raise"


class TestFixedPoints:
    def test_clog_interior_structure(self):
        fps = find_fixed_points("clog", 60.0, 0.2)
        assert [fp.stability for fp in fps] == ["stable", "unstable", "stable"]
        assert fps[0].location == 0.0
        assert fps[2].location == 1.0
        assert fps[1].location == pytest.approx(0.7, abs=1e-9)

    def test_clog_step_structure(self):
        fps = find_fixed_points("clog", 90.0, 0.1)
        assert [fp.stability for fp in fps] == ["stable", "unstable", "stable"]
        assert fps[1].location == pytest.approx(0.6, abs=1e-9)

    def test_clog_identity_continuum(self):
        result = find_fixed_points("clog", 45.0, 0.3)
        assert result is IDENTITY_CONTINUUM
        assert isinstance(result, FixedPointContinuum)

    def test_logistic_three_points(self):
        fps = find_fixed_points("logistic", 60.0)
        assert len(fps) == 3
        assert fps[0].location == pytest.approx(LOGISTIC_60_FP_LOW, abs=1e-6)
        assert fps[1].location == pytest.approx(0.5, abs=1e-9)
        assert fps[2].location == pytest.approx(LOGISTIC_60_FP_HIGH, abs=1e-6)
        assert [fp.stability for fp in fps] == ["stable", "unstable", "stable"]
        # mirror pair around the center
        assert fps[0].location + fps[2].location == pytest.approx(1.0, abs=1e-9)

    def test_logistic_low_angle_single_stable(self):
        fps = find_fixed_points("logistic", 40.0)
        assert len(fps) == 1
        assert fps[0].location == pytest.approx(0.5, abs=1e-12)
        assert fps[0].stability == "stable"

    def test_logistic_45_is_marginal(self):
        # The logistic's slope at its one fixed point is tan 45 = 1.
        fps = find_fixed_points("logistic", 45.0)
        assert len(fps) == 1
        assert fps[0].location == pytest.approx(0.5, abs=1e-12)
        assert fps[0].derivative == pytest.approx(1.0, abs=1e-9)
        assert fps[0].stability == "marginal"

    def test_logistic_biased_single_stable(self):
        for beta in (0.2, -0.2):
            fps = find_fixed_points("logistic", 60.0, beta)
            assert len(fps) == 1
            assert fps[0].stability == "stable"

    def test_logistic_constant_rule(self):
        fps = find_fixed_points("logistic", 0.0)
        assert len(fps) == 1
        assert fps[0].location == pytest.approx(0.5, abs=1e-12)
        assert fps[0].stability == "stable"

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            find_fixed_points("probit", 60.0)


class TestTabulateCurve:
    def test_identity_table(self):
        table = tabulate_curve("clog", 45.0, 3, beta=0.3)
        assert np.array_equal(table, [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])

    def test_step_table(self):
        table = tabulate_curve("clog", 90.0, 5)
        assert np.array_equal(
            table,
            [[0.0, 0.0], [0.25, 0.0], [0.5, 0.5], [0.75, 1.0], [1.0, 1.0]],
        )

    def test_logistic_midpoint_row(self):
        table = tabulate_curve("logistic", 60.0, 101)
        assert table[50, 0] == 0.5
        assert table[50, 1] == pytest.approx(0.5, abs=1e-15)

    def test_grid_is_inclusive_uniform(self):
        table = tabulate_curve("clog", 60.0, 11)
        assert table.shape == (11, 2)
        assert table[0, 0] == 0.0 and table[-1, 0] == 1.0
        assert np.allclose(np.diff(table[:, 0]), 0.1)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            tabulate_curve("clog", 60.0, 1)


_STAR = from_edges(5, [(0, k) for k in range(1, 5)])

# Every caller of the rule factory, as (family, call(phi, beta)).
_CONSUMERS = {
    "clog_eval": ("clog", lambda phi, beta: clog_eval(0.5, phi, beta)),
    "logistic_eval": ("logistic", lambda phi, beta: logistic_eval(0.5, phi, beta)),
    "find_fixed_points-clog": ("clog", lambda phi, beta: find_fixed_points("clog", phi, beta)),
    "find_fixed_points-logistic": ("logistic",
                                   lambda phi, beta: find_fixed_points("logistic", phi, beta)),
    "tabulate_curve-clog": ("clog", lambda phi, beta: tabulate_curve("clog", phi, 5, beta)),
    "tabulate_curve-logistic": ("logistic",
                                lambda phi, beta: tabulate_curve("logistic", phi, 5, beta)),
    "production_rule": ("clog", production_rule),
    "simulate_run": ("clog", lambda phi, beta: simulate_run(
        _STAR, 0, phi, beta, np.random.default_rng(0), max_iters=3)),
    "ScenarioConfig": ("clog", lambda phi, beta: ScenarioConfig("random", phi)),
}


def _bad_rule_inputs():
    """An angle just outside each end of the consumer's family range, NaN,
    and -1 (the logistic's lower one, far below the clog's), then a bias of 0.6 or NaN at each
    branch of the rule (the clog at 45 included); a scenario takes no bias."""
    for name, (family, _) in _CONSUMERS.items():
        lo = 45.0 if family == "clog" else 0.0
        for phi in dict.fromkeys((lo - 1.0, -1.0, 90.5, math.nan)):
            yield pytest.param(name, phi, 0.0, rf"phi must lie in \[{lo:g}, 90\] for the "
                               rf"{family} family, got {phi!r}", id=f"{name}-phi{phi:g}")
        for phi in (lo, 60.0, 90.0) if name != "ScenarioConfig" else ():
            for beta in (0.6, math.nan):
                yield pytest.param(name, phi, beta, rf"beta must lie in \[-0\.5, 0\.5\], "
                                   rf"got {beta!r}", id=f"{name}-phi{phi:g}-beta{beta}")


@pytest.mark.parametrize("consumer, phi, beta, message", _bad_rule_inputs())
def test_rule_consumer_names_bad_angle_or_bias(consumer, phi, beta, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        _CONSUMERS[consumer][1](phi, beta)

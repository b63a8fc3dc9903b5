import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamrate import (
    ConvergenceError,
    GmBounds,
    GmConfig,
    NumericalError,
    PrecisionError,
    TestChannel,
    ValidationError,
    compute_bounds,
    eta_multi,
    finite_t_lower,
    gamma_single,
    high_res_rate,
    kalman_steady_sigma,
    lower_bound_single,
    naive_wz_rate,
    rate_upper_multi,
    rate_upper_single,
    solve_test_channel_single,
)
from oracles import riccati_prediction_error
from streamrate.gauss_markov import (
    SIGMA_BRACKET,
    _brentq,
    _multi_distortion,
    _solve_increasing,
    lower_bound_closed_form,
)


def quadratic_root_rate(rho: float, B: int, D: float) -> float:
    """Independent oracle: solve the converse quadratic in x = 2^(2R) with a
    generic polynomial root finder and keep the larger root.

    The quadratic equals (1 - rho^2)(D - 1) < 0 at x = 1, so the larger root is
    the one above 1; as D -> 1 it tends to 1 and can round to either side."""
    b = D * rho**2 + 1 - rho ** (2 * (B + 1))
    c = rho**2 * (1 - rho ** (2 * B))
    roots = np.roots([D, -b, c])
    assert np.isreal(roots).all()
    return 0.5 * math.log2(max(roots.real))


class TestConfigValidation:
    def test_rho_range(self):
        with pytest.raises(ValidationError):
            GmConfig(rho=1.0, B=1, D=0.2)
        with pytest.raises(ValidationError):
            GmConfig(rho=0.0, B=1, D=0.2)

    def test_distortion_range(self):
        with pytest.raises(ValidationError):
            GmConfig(rho=0.5, B=1, D=0.0)
        with pytest.raises(ValidationError):
            GmConfig(rho=0.5, B=1, D=1.5)

    def test_channel_positive(self):
        with pytest.raises(ValidationError):
            TestChannel(0.0)


class TestLowerBound:
    def test_reference_point(self):
        cfg = GmConfig(rho=0.9, B=1, D=0.2)
        got = lower_bound_single(cfg)
        assert got == pytest.approx(0.560787614161078, abs=1e-12)
        assert got == pytest.approx(quadratic_root_rate(0.9, 1, 0.2), abs=1e-10)

    def test_quadratic_oracle_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rho = float(rng.uniform(0.05, 0.98))
            B = int(rng.integers(1, 5))
            D = float(rng.uniform(0.01, 0.95))
            got = lower_bound_single(GmConfig(rho=rho, B=B, D=D))
            assert got == pytest.approx(quadratic_root_rate(rho, B, D), abs=1e-10)

    @settings(max_examples=300, deadline=None)
    @given(
        rho=st.floats(1e-6, 1 - 1e-6),
        B=st.integers(1, 4),
        D=st.floats(1e-13, 1.0, exclude_max=True),
    )
    def test_matches_polynomial_root_finder(self, rho, B, D):
        got = lower_bound_single(GmConfig(rho=rho, B=B, D=D))
        assert got == pytest.approx(quadratic_root_rate(rho, B, D), abs=1e-10)

    def test_degenerate_burst_collapse(self):
        # with no erasure the bound is the one-step predictive rate form
        for rho, D in ((0.9, 0.2), (0.5, 0.6)):
            got = lower_bound_closed_form(rho, 0, D)
            assert got == pytest.approx(0.5 * math.log2(rho**2 + (1 - rho**2) / D), abs=1e-12)

    def test_memoryless_limit(self):
        got = lower_bound_single(GmConfig(rho=1e-6, B=3, D=0.25))
        assert got == pytest.approx(1.0, abs=1e-6)

    def test_unit_distortion_is_free(self):
        assert lower_bound_single(GmConfig(rho=0.9, B=2, D=1.0)) == 0.0


class TestSteadyStateFilter:
    def test_noiseless_observation(self):
        assert kalman_steady_sigma(0.9, 0.0) == pytest.approx(1 - 0.81, abs=1e-12)

    def test_useless_observation(self):
        assert kalman_steady_sigma(0.9, 1e6) == pytest.approx(1.0, abs=1e-4)

    def test_reference_point(self):
        assert kalman_steady_sigma(0.9, 0.1) == pytest.approx(0.24770434642758493, abs=1e-12)
        assert riccati_prediction_error(0.9, 0.1) == pytest.approx(0.24770434642758493, abs=1e-11)

    def test_riccati_agreement_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            rho = float(rng.uniform(0.05, 0.99))
            s2 = float(np.exp(rng.uniform(math.log(1e-6), math.log(1e3))))
            assert kalman_steady_sigma(rho, s2) == pytest.approx(
                riccati_prediction_error(rho, s2), abs=1e-12
            )


class TestSingleBurstChannel:
    def test_gamma_reference(self):
        cfg = GmConfig(rho=0.9, B=1, D=0.2)
        assert gamma_single(cfg, TestChannel(0.1)) == pytest.approx(0.07961847915120873, abs=1e-12)

    def test_gamma_limits(self):
        cfg = GmConfig(rho=0.9, B=1, D=0.2)
        assert gamma_single(cfg, TestChannel(1e-10)) < 1e-9
        top = gamma_single(cfg, TestChannel(1e12))
        assert top <= 1.0
        sig_inf = kalman_steady_sigma(0.9, 1e12)
        assert top == pytest.approx(1 - 0.81 * (1 - sig_inf), rel=1e-6)

    def test_gamma_strictly_increasing(self):
        cfg = GmConfig(rho=0.8, B=2, D=0.3)
        grid = np.exp(np.linspace(math.log(1e-8), math.log(1e8), 60))
        vals = [gamma_single(cfg, TestChannel(s)) for s in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_solver_round_trips(self):
        cfg = GmConfig(rho=0.9, B=1, D=0.2)
        target = gamma_single(cfg, TestChannel(0.1))
        tc = solve_test_channel_single(GmConfig(rho=0.9, B=1, D=target))
        assert tc.sigma_z2 == pytest.approx(0.1, abs=1e-8)
        target1 = gamma_single(cfg, TestChannel(1.0))
        tc1 = solve_test_channel_single(GmConfig(rho=0.9, B=1, D=target1))
        assert tc1.sigma_z2 == pytest.approx(1.0, abs=1e-8)

    def test_near_unit_distortion(self):
        cfg = GmConfig(rho=0.9, B=1, D=0.9999)
        tc = solve_test_channel_single(cfg)
        assert tc.sigma_z2 > 1e3
        assert rate_upper_single(cfg) < 1e-3

    def test_tiny_distortion_precision_error(self):
        with pytest.raises(PrecisionError):
            solve_test_channel_single(GmConfig(rho=0.9, B=1, D=1e-13))

    def test_rate_reference(self):
        target = gamma_single(GmConfig(rho=0.9, B=1, D=0.2), TestChannel(0.1))
        got = rate_upper_single(GmConfig(rho=0.9, B=1, D=target))
        assert got == pytest.approx(1.1473331934497784, abs=1e-10)
        assert got == pytest.approx(1.1474, abs=1e-4)

    def test_memoryless_limit(self):
        got = rate_upper_single(GmConfig(rho=1e-6, B=1, D=0.25))
        assert got == pytest.approx(1.0, abs=1e-5)

    def test_dominates_lower_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            cfg = GmConfig(
                rho=float(rng.uniform(0.05, 0.97)),
                B=int(rng.integers(1, 4)),
                D=float(rng.uniform(0.02, 0.95)),
            )
            assert rate_upper_single(cfg) >= lower_bound_single(cfg) - 1e-9

    def test_near_unit_correlation(self):
        # perfectly predictable limit: converse collapses, chain stays ordered
        cfg = GmConfig(rho=1 - 1e-6, B=1, D=0.2)
        lo = lower_bound_single(cfg)
        up = rate_upper_single(cfg)
        assert 0 <= lo < 1e-4
        assert math.isfinite(up) and up >= lo

    # (rho, B, D, sigma_z2, naive_wz_rate) as produced by the reference
    # root finder the solver replaces; every float must match to the last bit
    FROZEN = [
        (0.9, 1, 0.2, 0.3562408963956724, 0.6707475220758582),
        (0.9, 2, 0.2, 0.3134962823805917, 0.7826183022253371),
        (0.9, 3, 0.05, 0.05464279416603563, 1.782585175201758),
        (0.5, 1, 0.2, 0.2533675178932573, 1.1240644373617035),
        (0.5, 4, 0.6, 1.5009709827442304, 0.3682010647869399),
        (0.7, 2, 0.1, 0.11260450307687409, 1.5803444960728752),
        (0.99, 1, 0.01, 0.012644394282968355, 1.1780046792567487),
        (0.99, 3, 0.3, 4.951618744893738, 0.34523292285905577),
        (0.999, 1, 1e-06, 1.0002503755786189e-06, 5.981989940632894),
        (0.05, 1, 0.9999, 9999.062644103484, 7.213790818302331e-05),
        (1e-06, 1, 0.25, 0.3333333333333333, 1.0),
        (0.3, 2, 0.5, 1.0003733045543297, 0.49973706885209623),
        (0.8, 2, 0.3, 0.4788643718261222, 0.7270568006008222),
        (0.95, 1, 0.001, 0.0010053965268309911, 3.7707877324012977),
        (0.6, 3, 0.75, 3.0482778561673505, 0.20451208041802257),
        (0.9, 1, 1e-08, 1.0000000290782212e-08, 12.517742857082535),
        (0.999999, 1, 0.2, 24999.76250711077, 0.36848568248039837),
        (0.2, 4, 0.05, 0.052631579216870096, 2.1609639772709914),
        (0.85, 2, 0.37, 0.7455112469930412, 0.536849325424835),
        (0.9, 1, 0.9999, 44522.41692045149, 4.355867611275188e-05),
    ]

    @pytest.mark.parametrize("rho, B, D, sigma_z2, nwz", FROZEN)
    def test_frozen_solver_values(self, rho, B, D, sigma_z2, nwz):
        cfg = GmConfig(rho=rho, B=B, D=D)
        assert repr(solve_test_channel_single(cfg).sigma_z2) == repr(sigma_z2)
        assert repr(naive_wz_rate(cfg)) == repr(nwz)

    def test_bracket_covers_extreme_targets(self):
        for rho, D in ((0.999, 1e-6), (0.05, 1 - 1e-6), (0.9, 1e-8)):
            tc = solve_test_channel_single(GmConfig(rho=rho, B=1, D=D))
            assert gamma_single(GmConfig(rho=rho, B=1, D=D), tc) == pytest.approx(D, abs=1e-10)


def brentq(f, a, b):
    """The root alone, after checking that the value returned with it is f there."""
    root, value = _brentq(f, a, b, f(a), f(b))
    assert value == f(root)
    return root


class TestRootFinder:
    LOG_BRACKET = (math.log(SIGMA_BRACKET[0]), math.log(SIGMA_BRACKET[1]))

    def test_nan_objective(self):
        with pytest.raises(NumericalError):
            brentq(lambda x: math.nan, *self.LOG_BRACKET)
        # NaN inside the bracket only, where the solve first lands
        with pytest.raises(NumericalError):
            brentq(lambda x: -1.0 if x < -20 else (1.0 if x > 20 else math.nan), *self.LOG_BRACKET)

    def test_nan_inside_bracket_through_solver(self):
        def fn(s):
            return s if s in SIGMA_BRACKET or s < 1e-9 or s > 1e9 else math.nan

        with pytest.raises(NumericalError, match="NaN"):
            _solve_increasing(fn, 1.0, "nan objective")

    def test_bracket_ends_evaluated_once(self):
        seen = []
        _solve_increasing(lambda s: seen.append(s) or s, 1.0, "identity")
        ends = [math.exp(math.log(x)) for x in SIGMA_BRACKET]
        assert seen[:2] == ends
        assert not set(ends + list(SIGMA_BRACKET)) & set(seen[2:])

    def test_root_evaluated_once(self):
        seen = []
        root = _solve_increasing(lambda s: seen.append(s) or s * s, 2.0, "square")
        assert seen.count(root) == 1
        assert len(seen) == len(set(seen))

    def test_no_sign_change(self):
        with pytest.raises(NumericalError):
            brentq(lambda x: x * x + 1.0, -1.0, 2.0)

    def test_iterations_exhausted(self):
        # atan is flat far from its root, so interpolation does no better than
        # bisection, which needs about 1000 halvings to get from 1e300 to 1e-14
        with pytest.raises(ConvergenceError):
            brentq(lambda x: math.atan(x - 1.0), -1e300, 1e300)

    def test_endpoint_root(self):
        assert brentq(lambda x: x, 0.0, 1.0) == 0.0
        assert brentq(lambda x: x - 1.0, 0.0, 1.0) == 1.0

    def test_root_to_tolerance(self):
        root = brentq(lambda x: x * x - 2.0, 0.0, 2.0)
        assert abs(root - math.sqrt(2.0)) <= 1e-14


def direct_pre_burst_mmse(rho: float, L: int, D: float, sigma_z2: float) -> float:
    """Oracle for the multi-burst helper: build the joint covariance of the
    target source, the L-1 fresh observations, and the D-noisy aged state,
    then condition by an explicit Schur complement."""
    lags = np.arange(L)
    cross = rho**lags
    cov = rho ** np.abs(lags[:, None] - lags[None, :])
    cov = cov + np.diag([sigma_z2] * (L - 1) + [D / (1 - D)])
    return 1.0 - float(cross @ np.linalg.solve(cov, cross))


class TestMultiBurstChannel:
    def test_eta_single_guard_slot(self):
        cfg = GmConfig(rho=0.9, B=1, D=0.2, L=1)
        assert eta_multi(cfg, TestChannel(0.5)) == pytest.approx(0.2, abs=1e-12)

    def test_eta_useless_observations(self):
        cfg = GmConfig(rho=0.9, B=1, D=0.2, L=2)
        got = eta_multi(cfg, TestChannel(1e12))
        assert got == pytest.approx(1 - 0.81 * 0.8, abs=1e-10)

    def test_eta_matches_direct_schur(self):
        for rho in (0.05, 0.3, 0.6, 0.9, 0.99):
            for L in range(1, 13):
                for sigma_z2 in (1e-6, 1e-3, 0.1, 0.2, 1.0, 10.0, 1e4):
                    for D in (0.01, 0.2, 0.5, 0.9, 0.999):
                        got = eta_multi(GmConfig(rho=rho, B=1, D=D, L=L), TestChannel(sigma_z2))
                        want = direct_pre_burst_mmse(rho, L, D, sigma_z2)
                        assert got == pytest.approx(want, rel=0, abs=1e-12), (rho, L, sigma_z2, D)

    def test_rate_closed_form_at_l1(self):
        rate, tc = rate_upper_multi(GmConfig(rho=0.9, B=1, D=0.2, L=1))
        assert rate == pytest.approx(0.5 * math.log2((1 - 0.9**4 * 0.8) / 0.2), abs=1e-10)
        # the solved channel satisfies the distortion equation
        aged = 1 - 0.9**4 * (1 - 0.2)
        assert 1 / (1 / tc.sigma_z2 + 1 / aged) == pytest.approx(0.2, abs=1e-10)

    def test_large_guard_approaches_single(self):
        cfg = GmConfig(rho=0.9, B=1, D=0.2, L=50)
        rate, _ = rate_upper_multi(cfg)
        assert rate == pytest.approx(rate_upper_single(cfg), abs=1e-3)

    def test_memoryless_limit(self):
        for L in (1, 3):
            rate, _ = rate_upper_multi(GmConfig(rho=1e-6, B=2, D=0.25, L=L))
            assert rate == pytest.approx(1.0, abs=1e-5)

    def test_nonincreasing_in_guard(self):
        prev = math.inf
        for L in (1, 2, 3, 4, 6, 8, 12):
            rate, _ = rate_upper_multi(GmConfig(rho=0.9, B=1, D=0.2, L=L))
            assert rate <= prev + 1e-12
            prev = rate

    def test_nonincreasing_in_guard_random_grid(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            rho = float(rng.uniform(0.1, 0.95))
            B = int(rng.integers(1, 4))
            D = float(rng.uniform(0.05, 0.9))
            L = int(rng.integers(1, 7))
            shorter, _ = rate_upper_multi(GmConfig(rho=rho, B=B, D=D, L=L))
            longer, _ = rate_upper_multi(GmConfig(rho=rho, B=B, D=D, L=L + 1))
            assert longer <= shorter + 1e-9

    def test_distortion_map_increasing_in_noise(self):
        # the bracketed root solve rests on this map being increasing
        rng = np.random.default_rng(33)
        for _ in range(10):
            cfg = GmConfig(
                rho=float(rng.uniform(0.1, 0.95)),
                B=int(rng.integers(1, 4)),
                D=float(rng.uniform(0.05, 0.9)),
                L=int(rng.integers(1, 7)),
            )
            grid = np.exp(np.linspace(math.log(1e-8), math.log(1e8), 40))
            vals = [_multi_distortion(cfg, s) for s in grid]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    @settings(max_examples=200, deadline=None)
    @given(
        rho=st.floats(1e-6, 1 - 1e-6),
        B=st.integers(1, 6),
        L=st.integers(1, 16),
        D=st.floats(1e-8, 1.0, exclude_max=True),
    )
    def test_distortion_map_monotone_on_bracket(self, rho, B, L, D):
        # nine log-spaced points across the whole solver bracket; the argument
        # is in rate_upper_multi's docstring
        cfg = GmConfig(rho=rho, B=B, D=D, L=L)
        probe = np.exp(np.linspace(math.log(SIGMA_BRACKET[0]), math.log(SIGMA_BRACKET[1]), 9))
        vals = [_multi_distortion(cfg, float(s)) for s in probe]
        assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))


class TestHighResolution:
    def test_reference_point(self):
        assert high_res_rate(GmConfig(rho=0.9, B=1, D=0.01)) == pytest.approx(
            2.5519586053760333, abs=1e-12
        )

    def test_memoryless(self):
        assert high_res_rate(GmConfig(rho=1e-6, B=2, D=0.25)) == pytest.approx(1.0, abs=1e-5)

    def test_zero_crossing(self):
        rho, B = 0.8, 1
        D = 1 - rho ** (2 * (B + 1))
        assert high_res_rate(GmConfig(rho=rho, B=B, D=D)) == pytest.approx(0.0, abs=1e-12)

    def test_gaps_shrink_monotonically(self):
        gaps_lo, gaps_mu = [], []
        for D in (1e-2, 1e-3, 1e-4):
            cfg = GmConfig(rho=0.9, B=1, D=D, L=4)
            hr = high_res_rate(cfg)
            gaps_lo.append(abs(lower_bound_single(cfg) - hr))
            gaps_mu.append(abs(rate_upper_multi(cfg)[0] - hr))
        assert gaps_lo[0] > gaps_lo[1] > gaps_lo[2]
        assert gaps_mu[0] > gaps_mu[1] > gaps_mu[2]


class TestNaiveTwoPoint:
    def test_memoryless(self):
        assert naive_wz_rate(GmConfig(rho=1e-6, B=1, D=0.25)) == pytest.approx(1.0, abs=1e-5)

    def test_never_beats_layered_decoder(self):
        nwz = naive_wz_rate(GmConfig(rho=0.9, B=1, D=0.2))
        for L in (1, 2, 4, 8):
            rate, _ = rate_upper_multi(GmConfig(rho=0.9, B=1, D=0.2, L=L))
            assert nwz >= rate - 1e-10

    def test_near_optimal_at_high_resolution(self):
        gaps = []
        for D in (1e-2, 1e-3, 1e-4):
            cfg = GmConfig(rho=0.9, B=1, D=D)
            gaps.append(naive_wz_rate(cfg) - high_res_rate(cfg))
        assert gaps[0] > gaps[1] > gaps[2] > 0
        assert gaps[2] < 2e-4


class TestFiniteHorizon:
    def test_first_decodable_time(self):
        cfg = GmConfig(rho=0.9, B=1, D=0.2)
        expected = 0.5 * math.log2((1 - 0.9**4) / 0.2)
        assert finite_t_lower(cfg, 2) == pytest.approx(expected, abs=1e-10)

    def test_converges_to_infinite_horizon(self):
        cfg = GmConfig(rho=0.9, B=1, D=0.2)
        assert finite_t_lower(cfg, 10**4) == pytest.approx(lower_bound_single(cfg), abs=1e-6)

    def test_monotone_in_t(self):
        cfg = GmConfig(rho=0.85, B=2, D=0.3)
        vals = [finite_t_lower(cfg, t) for t in range(3, 40)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_too_early_rejected(self):
        with pytest.raises(ValidationError):
            finite_t_lower(GmConfig(rho=0.9, B=2, D=0.2), 2)


class TestBoundChain:
    def test_grid_ordering(self):
        # lower <= upper_single <= upper_multi across a 200-point grid
        rng = np.random.default_rng(29)
        count = 0
        while count < 200:
            cfg = GmConfig(
                rho=float(rng.uniform(0.05, 0.97)),
                B=int(rng.integers(1, 4)),
                D=float(rng.uniform(0.02, 0.9)),
                L=int(rng.integers(1, 8)),
            )
            bounds = compute_bounds(cfg)
            assert bounds.lower <= bounds.upper_single + 1e-9
            assert bounds.upper_single <= bounds.upper_multi + 1e-9
            count += 1

    def test_invariant_enforced(self):
        with pytest.raises(ValidationError):
            GmBounds(lower=0.9, upper_single=0.5, high_res=0.1, sigma_z2_single=0.1)

    def test_unit_distortion_row(self):
        bounds = compute_bounds(GmConfig(rho=0.9, B=1, D=1.0))
        assert bounds.lower == bounds.upper_single == bounds.upper_multi == 0.0

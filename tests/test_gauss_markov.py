import math
import sys
from collections import Counter
from decimal import Decimal, localcontext
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import streamrate.gauss_markov as gm
from streamrate import (
    ConvergenceError,
    GmBounds,
    GmConfig,
    NumericalError,
    PrecisionError,
    TestChannel,
    ValidationError,
    cli,
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
from conftest import numpy_or_none
from oracles import (
    converse_rate_decimal,
    reference_aged,
    reference_bounds,
    reference_brentq,
    reference_eta_multi,
    reference_mmse,
    reference_solve,
    riccati_prediction_error,
    two_point_rate_decimal,
)
from streamrate.errors import source_constants
from streamrate.gauss_markov import (
    _solve_increasing,
    lower_bound_closed_form,
)

np = numpy_or_none()


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

    @pytest.mark.parametrize("rho", [0.05, 0.9, 1.0 - 1e-12, 1.0 - 2**-53])
    def test_no_bound_changes_past_the_burst_cap(self, rho):
        # past B = 3.36e18, rho^(2B) is 0.0 and 1 - rho^(2B) is 1.0 at every float rho < 1
        B = 3_356_000_000_000_000_000
        assert source_constants(1.0 - 2**-53, 2 * B)[2:] == (0.0, 1.0)
        at_cap = GmConfig(rho=rho, B=gm.BURST_CAP, D=0.2, L=3)
        assert compute_bounds(at_cap) == compute_bounds(GmConfig(rho=rho, B=B, D=0.2, L=3))
        assert naive_wz_rate(at_cap) == naive_wz_rate(GmConfig(rho=rho, B=B, D=0.2, L=3))


class TestLowerBound:
    @pytest.mark.needs_numpy
    def test_reference_point(self):
        cfg = GmConfig(rho=0.9, B=1, D=0.2)
        got = lower_bound_single(cfg)
        assert got == pytest.approx(0.560787614161078, abs=1e-12)
        assert got == pytest.approx(quadratic_root_rate(0.9, 1, 0.2), abs=1e-10)

    @pytest.mark.needs_numpy
    def test_quadratic_oracle_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rho = float(rng.uniform(0.05, 0.98))
            B = int(rng.integers(1, 5))
            D = float(rng.uniform(0.01, 0.95))
            got = lower_bound_single(GmConfig(rho=rho, B=B, D=D))
            assert got == pytest.approx(quadratic_root_rate(rho, B, D), abs=1e-10)

    @pytest.mark.needs_numpy
    @settings(max_examples=300, deadline=None)
    @given(
        rho=st.floats(1e-6, 1 - 1e-6),
        B=st.integers(1, 4),
        D=st.floats(1e-13, 1.0, exclude_max=True),
    )
    def test_matches_polynomial_root_finder(self, rho, B, D):
        got = lower_bound_single(GmConfig(rho=rho, B=B, D=D))
        assert got == pytest.approx(quadratic_root_rate(rho, B, D), abs=1e-10)

    @settings(max_examples=300, deadline=None)
    @given(
        rho=st.floats(1 - 1e-12, 1.0, exclude_max=True),
        B=st.integers(1, 10**4),
        D=st.floats(1e-300, 1.0, exclude_max=True),
    )
    def test_near_unit_correlation_is_finite(self, rho, B, D):
        # the discriminant is a sum of two nonnegative terms, so it never
        # rounds below zero; accuracy here is checked against decimal
        # arithmetic below, not against a float root finder
        got = lower_bound_single(GmConfig(rho=rho, B=B, D=D))
        assert math.isfinite(got) and got >= 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        rho=st.floats(1 - 1e-12, 1.0, exclude_max=True),
        B=st.integers(1, 20),
        D=st.floats(1e-300, 1.0, exclude_max=True),
    )
    def test_near_unit_correlation_matches_decimal(self, rho, B, D):
        # relative error 1e-9; the 1e-15 floor covers rates within rounding of 0
        got = lower_bound_single(GmConfig(rho=rho, B=B, D=D))
        want = converse_rate_decimal(rho, B, D)
        assert got >= 0.0
        assert abs(got - want) <= 1e-9 * want + 1e-15

    def test_near_unit_correlation_reference_point(self):
        # 1 - rho^2 formed from the rounded rho^2 read 2.722369 here, 1.2e-4 high
        rho, B, D = 0.9999999999999734, 2, 3.7e-15
        want = converse_rate_decimal(rho, B, D)
        assert want == pytest.approx(2.7222539536926929, abs=1e-15)
        assert abs(lower_bound_single(GmConfig(rho=rho, B=B, D=D)) - want) <= 1e-9 * want

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

    @pytest.mark.parametrize("rho", [0.05, 0.5, 0.9, 0.999])
    @pytest.mark.parametrize("sigma_z2", [1.5, 1e3, 1e6, 1e9, 1e12])
    def test_large_noise_matches_decimal(self, rho, sigma_z2):
        # above s = 1 the usual root form cancels: its error was 3.1e-5 at 1e12
        q = 1.0 - rho**2
        with localcontext() as ctx:
            ctx.prec = 50
            dq, ds = Decimal(q), Decimal(sigma_z2)
            b = dq * (1 - ds)
            want = float((b + (b * b + 4 * dq * ds).sqrt()) / 2)
        assert kalman_steady_sigma(rho, sigma_z2) == pytest.approx(want, rel=4e-16)

    @pytest.mark.needs_numpy
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

    @pytest.mark.needs_numpy
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
        # below the normal float range 1 / D overflows; D = 1e-13 solves
        with pytest.raises(PrecisionError):
            solve_test_channel_single(GmConfig(rho=0.9, B=1, D=1e-310))
        bounds = compute_bounds(GmConfig(rho=0.9, B=1, D=1e-13))
        assert bounds.upper_single == 20.822563127256664
        assert bounds.lower <= bounds.upper_single <= bounds.upper_multi

    def test_rate_reference(self):
        target = gamma_single(GmConfig(rho=0.9, B=1, D=0.2), TestChannel(0.1))
        got = rate_upper_single(GmConfig(rho=0.9, B=1, D=target))
        assert got == pytest.approx(1.1473331934497784, abs=1e-10)
        assert got == pytest.approx(1.1474, abs=1e-4)

    def test_memoryless_limit(self):
        got = rate_upper_single(GmConfig(rho=1e-6, B=1, D=0.25))
        assert got == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.needs_numpy
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

    # (rho, B, D, sigma_z2, naive_wz_rate): sigma_z2 is the float where the
    # single-burst MMSE crosses D, as the Brent-based `reference_solve` finds
    # it, and every float must match to the last bit.  The library's solve
    # finds the same float except where MOVED names another crossing.  The
    # nwz column is the two-point burst channel's, which TestNaiveTwoPoint
    # holds to the 50-digit closed form
    FROZEN = [
        (0.9, 1, 0.2, 0.3562408963956724, 0.6707475220758581),
        (0.9, 2, 0.2, 0.31349628238059163, 0.782618302225337),
        (0.9, 3, 0.05, 0.05464279416603563, 1.78258517520176),
        (0.5, 1, 0.2, 0.2533675178932573, 1.124064437361703),
        (0.5, 4, 0.6, 1.5009709827442306, 0.3682010647869399),
        (0.7, 2, 0.1, 0.1126045030768741, 1.5803444960728756),
        (0.99, 1, 0.01, 0.012644394282968348, 1.178004679256794),
        (0.99, 3, 0.3, 4.951618744893744, 0.3452329228590556),
        (0.999, 1, 1e-06, 1.0002503755786178e-06, 5.981989939657705),
        (0.05, 1, 0.9999, 9999.062644072588, 7.213790818318346e-05),
        (1e-06, 1, 0.25, 0.3333333333333333, 1.0),
        (0.3, 2, 0.5, 1.0003733045543295, 0.49973706885209623),
        (0.8, 2, 0.3, 0.4788643718261233, 0.7270568006008216),
        (0.95, 1, 0.001, 0.0010053965268309914, 3.770787732401089),
        (0.6, 3, 0.75, 3.04827785616735, 0.20451208041802257),
        (0.9, 1, 1e-08, 1.0000000290782207e-08, 12.517742903800148),
        (0.999999, 1, 0.2, 24999.762507387313, 0.3684856824803984),
        (0.2, 4, 0.05, 0.05263157921687009, 2.160963977270991),
        (0.85, 2, 0.37, 0.7455112469930409, 0.536849325424835),
        (0.9, 1, 0.9999, 44522.41695331185, 4.3558676112912034e-05),
    ]

    # near D = 1 the MMSE equals D over thousands of floats, and the two
    # searches stop on different crossings among them
    MOVED = {44522.41695331185: 44522.41695328835}

    @pytest.mark.parametrize("rho, B, D, sigma_z2, nwz", FROZEN)
    def test_frozen_solver_values(self, rho, B, D, sigma_z2, nwz):
        cfg = GmConfig(rho=rho, B=B, D=D)
        brent = reference_solve(reference_aged(cfg)["single"], D, "single-burst test channel")
        assert repr(brent) == repr(sigma_z2)
        assert repr(solve_test_channel_single(cfg).sigma_z2) == repr(self.MOVED.get(sigma_z2, sigma_z2))
        assert repr(naive_wz_rate(cfg)) == repr(nwz)

    def test_bracket_covers_extreme_targets(self):
        for rho, D in ((0.999, 1e-6), (0.05, 1 - 1e-6), (0.9, 1e-8)):
            tc = solve_test_channel_single(GmConfig(rho=rho, B=1, D=D))
            assert gamma_single(GmConfig(rho=rho, B=1, D=D), tc) == pytest.approx(D, abs=1e-10)


def brentq(f, a, b):
    """The root of `reference_brentq` alone, after checking that the bracket
    returned with it holds the values of f at its two ends."""
    root, value, other, f_other = reference_brentq(f, a, b, f(a), f(b))
    assert value == f(root) and f_other == f(other)
    return root


def burst_aged(s):
    """The aged error of a burst channel with c = 0.5 and pre(s) = s / (1 + s)."""
    return 1.0 - 0.5 / (1.0 + s)


def analytic_bracket(aged, D):
    """The solver's first two points where aged(D / (1 - D)) > D: D / (1 - D),
    and the root were aged flat from there."""
    lo = D / (1.0 - D)
    return lo, 1.0 / (1.0 / D - 1.0 / aged(lo))


def single_channel(cfg: GmConfig):
    """cfg's single-burst closure, as `rate_upper_single` builds it."""
    return gm._single_channel(source_constants(cfg.rho, 2 * cfg.B))


def multi_channel(cfg: GmConfig):
    """cfg's repeated-burst closure, as `rate_upper_multi` builds it."""
    return gm._multi_channel(source_constants(cfg.rho, 2 * (cfg.B + 1)), cfg.D, cfg.L)


def two_point_channel(cfg: GmConfig):
    """cfg's two-point closure, as `naive_wz_rate` builds it."""
    return gm._two_point_channel(source_constants(cfg.rho, 2 * (cfg.B + 1)))


def mmse_of(aged):
    """The burst-channel MMSE 1 / (1/s + 1/aged(s)) of the aged error aged."""
    return lambda s: 1.0 / (1.0 / s + 1.0 / aged(s))


def solved_noise(aged, D, what):
    """The noise of `_solve_increasing`'s (noise, aged error) pair."""
    return _solve_increasing(aged, D, what)[0]


class TestRootFinder:
    def test_nan_objective(self):
        with pytest.raises(NumericalError):
            brentq(lambda x: math.nan, -27.6, 27.6)
        # NaN inside the bracket only, where the solve first lands
        with pytest.raises(NumericalError):
            brentq(lambda x: -1.0 if x < -20 else (1.0 if x > 20 else math.nan), -27.6, 27.6)

    def test_nan_inside_bracket_through_solver(self):
        lo, hi = analytic_bracket(burst_aged, 0.3)

        def aged(s):
            return math.nan if lo < s < hi else burst_aged(s)

        with pytest.raises(NumericalError, match="NaN"):
            _solve_increasing(aged, 0.3, "nan objective")

    def test_bracket_ends_evaluated_once(self):
        seen = []
        _solve_increasing(lambda s: seen.append(s) or burst_aged(s), 0.3, "burst")
        ends = list(analytic_bracket(burst_aged, 0.3))
        assert seen[:2] == ends
        assert not set(ends) & set(seen[2:])

    def test_root_evaluated_once(self):
        # through the rate: the rate reads the aged error that the search
        # computed at the root, so no point is evaluated twice
        seen = []
        rate, root = gm._solve(lambda s: seen.append(s) or burst_aged(s), 0.3, "burst")
        assert seen.count(root) == 1
        assert len(seen) == len(set(seen))
        assert rate == 0.5 * math.log2(burst_aged(root) / 0.3)

    def test_upward_search(self):
        # aged(D / (1 - D)) <= D: no analytic upper end, so the search steps up
        def aged(s):
            return 1.0 - 0.9 / (1.0 + 0.01 * s)

        root, aged_root = _solve_increasing(aged, 0.9, "slow channel")
        assert aged_root == aged(root) and aged(0.9 / 0.1) <= 0.9
        assert 1.0 / (1.0 / root + 1.0 / aged(root)) >= 0.9
        below = math.nextafter(root, 0.0)
        assert 1.0 / (1.0 / below + 1.0 / aged(below)) < 0.9

    def test_residual_checked(self):
        # an aged error that jumps at s = 0.5: the MMSE passes D = 0.3 there
        # by 0.02, so the float where it crosses D is no root
        with pytest.raises(NumericalError, match="residual 2.1"):
            _solve_increasing(lambda s: 0.5 if s < 0.5 else 0.9, 0.3, "jump")

    def test_stalled_steps_end_in_bisection(self):
        # near rho = 1 the rounded MMSE jumps between runs of floats and the
        # regula falsi stalls; after its 100 steps the bisection on the float
        # bit patterns ends on the root the Brent-based solve found
        cfg = GmConfig(rho=0.9999999745332029, B=4, D=5.022044321876795e-07, L=6)
        aged = multi_channel(cfg)
        mmse = mmse_of(aged)
        seen = []
        root, _ = _solve_increasing(lambda s: seen.append(s) or aged(s), cfg.D, "multi-burst")
        assert 102 < len(seen) <= 102 + 64
        assert mmse(root) >= cfg.D > mmse(math.nextafter(root, 0.0))
        assert root == reference_solve(reference_aged(cfg)["multi"], cfg.D, "multi-burst")

    def test_equal_reciprocals_search_upward(self):
        # the upward search's first point b = 2 D / (1 - D) has aged(b) > D,
        # but their reciprocals round equal, so the analytic end
        # 1 / (1/D - 1/aged(b)) would divide by zero: the search goes on up
        cfg = GmConfig(rho=0.8489506257621932, B=1, D=0.9999999999999989, L=2)
        aged = single_channel(cfg)
        mmse = mmse_of(aged)
        b = 2.0 * cfg.D / (1.0 - cfg.D)
        assert aged(b) > cfg.D and 1.0 / aged(b) == 1.0 / cfg.D
        root, _ = _solve_increasing(aged, cfg.D, "single-burst")
        assert mmse(root) >= cfg.D > mmse(math.nextafter(root, 0.0))
        bounds = compute_bounds(cfg)
        assert 0.0 <= bounds.lower <= bounds.upper_single <= bounds.upper_multi

    def test_upward_search_runs_out(self):
        # an aged error that never exceeds D: no noise reaches it, and the
        # upward search stops where the noise overflows
        with pytest.raises(PrecisionError, match="up to the largest float noise"):
            _solve_increasing(lambda s: 0.5, 0.6, "flat channel")

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


def production_bounds(cfg: GmConfig) -> dict:
    """The solved noise variances, read off `_solve_increasing` as it returns,
    and the rates of `compute_bounds`, `rate_upper_multi` and `naive_wz_rate`.
    upper_multi is the kernel's own rate, before `compute_bounds` raises a
    rounding misorder to upper_single."""
    sigmas = {}
    solve = gm._solve_increasing

    def record(fn, target, what):
        result = solve(fn, target, what)
        sigmas[what] = result[0]
        return result

    with mock.patch.object(gm, "_solve_increasing", record):
        bounds, nwz = compute_bounds(cfg), naive_wz_rate(cfg)
        multi, tc_multi = rate_upper_multi(cfg)
    assert (bounds.sigma_z2_single, bounds.sigma_z2_multi) == (
        sigmas["single-burst test channel"], sigmas["multi-burst test channel"])
    assert tc_multi.sigma_z2 == bounds.sigma_z2_multi
    assert bounds.upper_multi == max(multi, bounds.upper_single)
    return {
        "sigma_single": sigmas["single-burst test channel"],
        "sigma_multi": sigmas["multi-burst test channel"],
        "sigma_two_point": sigmas["two-point test channel"],
        "upper_single": bounds.upper_single,
        "upper_multi": multi,
        "nwz": nwz,
    }


class TestKernelParity:
    """The per-solve kernels against the objective chain they replaced
    (`oracles.reference_aged`): every float must match to the last bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        rho=st.floats(0.05, 0.99),
        B=st.integers(1, 4),
        L=st.integers(1, 8),
        D=st.floats(1e-3, 0.95),
    )
    # D near 1 takes the upward bracket search, and there and near rho = 1
    # the noise passes 1, the hypot branch of the single-burst closure
    @example(rho=0.9, B=2, L=3, D=0.99)
    @example(rho=0.5, B=1, L=4, D=1 - 1e-9)
    @example(rho=0.8489506257621932, B=3, L=8, D=1 - 1e-12)
    @example(rho=1 - 1e-6, B=2, L=5, D=0.3)
    def test_solves_match_reference_chain(self, rho, B, L, D):
        cfg = GmConfig(rho=rho, B=B, D=D, L=L)
        assert production_bounds(cfg) == reference_bounds(cfg, solved_noise)

    @settings(max_examples=500, deadline=None)
    @given(
        # near rho = 1, where c = rho^(2B) is near 1, aging keeps the copy's last bits
        rho=st.one_of(st.floats(1e-9, 1 - 1e-12), st.floats(0.99, 1 - 1e-12)),
        B=st.integers(1, 8),
        L=st.integers(1, 60),
        D=st.floats(1e-12, 1.0, exclude_max=True),
        s=st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.floats(1.0, allow_infinity=False)),
    )
    @example(rho=0.9, B=1, L=3, D=0.2, s=1.0)
    @example(rho=0.9, B=1, L=3, D=0.2, s=math.nextafter(1.0, 2.0))
    @example(rho=1 - 1e-12, B=2, L=40, D=1e-9, s=5e-324)
    @example(rho=0.5, B=1, L=2, D=0.5, s=sys.float_info.max)
    def test_closures_copy_their_kernels(self, rho, B, L, D, s):
        # the channel closures carry copies of `_steady_sigma` and `_eta`,
        # so that an evaluation is one call; each copy equals its kernel
        cfg = GmConfig(rho=rho, B=B, D=D, L=L)
        _, q, c, _ = source_constants(rho, 2 * B)
        assert single_channel(cfg)(s).hex() == (1.0 - c * (1.0 - gm._steady_sigma(q, s))).hex()
        a, q, c, _ = source_constants(rho, 2 * (B + 1))
        assert multi_channel(cfg)(s).hex() == (1.0 - c * (1.0 - gm._eta(a, q, D, L - 1, s))).hex()
        assert eta_multi(cfg, TestChannel(s)).hex() == gm._eta(a, q, D, L - 1, s).hex()

    def test_closures_copy_their_kernels_on_a_grid(self):
        # the aging 1 - c (1 - pre) drops the last bits of most pre-burst
        # errors, so a copy that rounds differently shows in few draws; a
        # grid over 24 decades of noise and rho from 0.3 to 1 - 1e-12 shows it
        noises = [10.0 ** (k / 8) for k in range(-96, 97)] + [1.0, math.nextafter(1.0, 0.0)]
        for rho in [0.3, 0.9] + [1 - 10.0**-k for k in range(2, 13)]:
            for B, L in ((1, 1), (2, 3), (4, 9)):
                cfg = GmConfig(rho=rho, B=B, D=0.3, L=L)
                single, multi = single_channel(cfg), multi_channel(cfg)
                _, q, c, _ = source_constants(rho, 2 * B)
                a, _, c_multi, _ = source_constants(rho, 2 * (B + 1))
                for s in noises:
                    assert single(s) == 1.0 - c * (1.0 - gm._steady_sigma(q, s)), (rho, B, s)
                    assert multi(s) == 1.0 - c_multi * (1.0 - gm._eta(a, q, 0.3, L - 1, s)), (rho, B, L, s)

    @pytest.mark.parametrize("rho", [0.5, 0.9, 0.999999])
    def test_longest_guard_matches_reference_chain(self, rho):
        # the guard recursion stops where a step returns its own float: after
        # a few steps at rho 0.5, never within 10^4 at rho 0.999999; the
        # reference runs every step
        cfg = GmConfig(rho=rho, B=2, D=0.05, L=gm.GUARD_CAP)
        assert production_bounds(cfg) == reference_bounds(cfg, solved_noise)
        for sigma_z2 in (1e-6, 0.05, 1.0, 1e6):
            tc = TestChannel(sigma_z2)
            assert eta_multi(cfg, tc).hex() == reference_eta_multi(cfg, tc).hex()

    @settings(max_examples=150, deadline=None)
    @given(
        rho=st.floats(0.05, 0.99),
        B=st.integers(1, 4),
        L=st.integers(1, 8),
        D=st.floats(1e-3, 0.95),
    )
    def test_solves_match_brent_reference(self, rho, B, L, D):
        # the regula falsi against the Brent-based solve it replaced: each
        # root crosses D, and the rates agree to rounding
        cfg = GmConfig(rho=rho, B=B, D=D, L=L)
        got, want = production_bounds(cfg), reference_bounds(cfg, reference_solve)
        for key in ("upper_single", "upper_multi", "nwz"):
            assert abs(got[key] - want[key]) <= 1e-14, key
        for key, channel in CHANNELS.items():
            mmse = mmse_of(channel(cfg))
            for s in (got[key], want[key]):
                assert mmse(s) >= D > mmse(math.nextafter(s, 0.0)), key

    # the outcomes (bracket, or error class and message) of the SciPy port
    # that the library's test-channel solve ran before its regula falsi,
    # keyed by the bracket; `reference_brentq` must reproduce them
    PORT_OUTCOMES = {
        (-1e300, 1e300): (ConvergenceError,
                          "Brent's method did not converge in 100 steps (at 5.820975652447903e+252)"),
        (0.0, 2.0): ("0x1.6a09e667f3bcdp+0", "0x1.0000000000000p-51",
                     "0x1.6a09e667f3bccp+0", "-0x1.0000000000000p-51"),
        (-27.6, 27.6): (NumericalError, "objective is NaN at 0.0"),
        (-1.0, 1.0): ("0x1.3333333333332p-2", "-0x1.0000000000000p+0",
                      "0x1.3333333333334p-2", "0x1.0000000000000p+0"),
        (0.0, 1.0): ("0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        (-1.0, 2.0): (NumericalError, "objective has the same sign at both ends of the bracket"),
    }

    @pytest.mark.parametrize("f, a, b", [
        (lambda x: math.atan(x - 1.0), -1e300, 1e300),
        (lambda x: x * x - 2.0, 0.0, 2.0),
        (lambda x: -1.0 if x < -20 else (1.0 if x > 20 else math.nan), -27.6, 27.6),
        (lambda x: math.copysign(1.0, x - 0.3), -1.0, 1.0),
        (lambda x: x, 0.0, 1.0),
        (lambda x: x * x + 1.0, -1.0, 2.0),
    ])
    def test_brent_outcomes_match_reference(self, f, a, b):
        try:
            outcome = tuple(v.hex() for v in reference_brentq(f, a, b, f(a), f(b)))
        except (NumericalError, ConvergenceError) as exc:
            outcome = (type(exc), str(exc))
        assert outcome == self.PORT_OUTCOMES[a, b]

    # (rho, B, L, D) and float.hex of sigma single, multi and two-point (each
    # a float where the MMSE crosses D; the Brent-based solve found the same
    # floats), then upper_single, upper_multi and nwz; (0.9, 1, 1, 0.2) is the
    # config of the golden `simulate --D` output
    FROZEN_HEX = [
        (0.9, 1, 1, 0.2, "0x1.6cca69de118c7p-2", "0x1.61ae347ec9603p-2", "0x1.524b902a7db60p-2",
         "0x1.30679d0a57899p-1", "0x1.3f900f78732cep-1", "0x1.576c381e60b0cp-1"),
        (0.9, 1, 8, 0.2, "0x1.6cca69de118c7p-2", "0x1.6cca5984f3044p-2", "0x1.524b902a7db60p-2",
         "0x1.30679d0a57899p-1", "0x1.3067b23a46909p-1", "0x1.576c381e60b0cp-1"),
        (0.05, 2, 3, 0.3, "0x1.b6db6dd960c7fp-2", "0x1.b6db6dd960c7fp-2", "0x1.b6db6dd95eca4p-2",
         "0x1.bca9c6b16ef6fp-1", "0x1.bca9c6b16ef6fp-1", "0x1.bca9c6b172dfcp-1"),
        (0.99, 3, 4, 0.5, "0x1.58bbc96e0fd55p+4", "0x1.c0b97d56d07eap+3", "0x1.e2ede1f409cadp+0",
         "0x1.157f6f57aa15cp-6", "0x1.ad1b37b04c988p-6", "0x1.c6f170b9fd44dp-3"),
        (0.7, 2, 2, 0.001, "0x1.0670ff3cc8f33p-10", "0x1.0670ff3cc8f32p-10", "0x1.0670ff3c2596cp-10",
         "0x1.392201657f31ep+2", "0x1.392201657f3c5p+2", "0x1.392201c871eccp+2"),
        (0.5, 4, 5, 0.95, "0x1.305d45e9eb38dp+4", "0x1.305d37e5edefap+4", "0x1.304834f55fc2cp+4",
         "0x1.2ebbecf2f0b11p-5", "0x1.2ebbfb40b5b45p-5", "0x1.2ed16e52e0b32p-5"),
        (0.99, 1, 8, 0.001, "0x1.0cce9be96a08cp-10", "0x1.0cce9be96a08cp-10", "0x1.0ccca7b3f5a78p-10",
         "0x1.5564342eb8b88p+1", "0x1.5564342eb8b88p+1", "0x1.557e9fe86c68dp+1"),
        (0.05, 1, 1, 0.95, "0x1.3000768f5fc6cp+4", "0x1.3000764b106b5p+4", "0x1.3000764ae4b15p+4",
         "0x1.2f1ac28772210p-5", "0x1.2f1ac2cd54c7ep-5", "0x1.2f1ac2cd81844p-5"),
        (0.8, 3, 6, 0.1, "0x1.d06b4ccea8c59p-4", "0x1.d06b4cce9cb0ap-4", "0x1.d04385e463964p-4",
         "0x1.8a951efd1e4f9p+0", "0x1.8a951efd42349p+0", "0x1.8b0b7c6ba2df5p+0"),
        (0.6, 2, 1, 0.4, "0x1.5c78054cb8ed5p-1", "0x1.5c03e2e3b6e4cp-1", "0x1.5bf6101524a3fp-1",
         "0x1.473d85e71d7a0p-1", "0x1.47ed60223e0dap-1", "0x1.48025c0e29a88p-1"),
        (0.95, 4, 2, 0.05, "0x1.d033cec11a08dp-5", "0x1.d02275e959894p-5", "0x1.cf080f614350bp-5",
         "0x1.8b3a5aaa9bcbep+0", "0x1.8b6e2827e63b5p+0", "0x1.8ec3bb8c1a7ffp+0"),
        (0.3, 1, 7, 0.7, "0x1.2c72671b45516p+1", "0x1.2c72671b42b92p+1", "0x1.2c5dfa7b1fbc8p+1",
         "0x1.05968d9fb848cp-2", "0x1.05968d9fbafeep-2", "0x1.05abe60e40084p-2"),
    ]

    @pytest.mark.parametrize("row", FROZEN_HEX)
    def test_frozen_hex(self, row):
        rho, B, L, D, *frozen = row
        got = production_bounds(GmConfig(rho=rho, B=B, D=D, L=L))
        assert [v.hex() for v in got.values()] == frozen

    @pytest.mark.parametrize("solve, what", [
        (solve_test_channel_single, "single-burst test channel"),
        (rate_upper_multi, "multi-burst test channel"),
        (naive_wz_rate, "two-point test channel"),
    ])
    def test_error_classes_and_messages(self, solve, what):
        with pytest.raises(PrecisionError) as exc:
            solve(GmConfig(rho=0.9, B=3, D=1e-310, L=4))
        assert str(exc.value) == (
            f"{what}: target 1.000e-310 is below the normal float range; "
            "the required noise would underflow"
        )
        # every D < 1 is feasible: the old bracket [1e-12, 1e12] missed these
        for D in (1e-300, 1 - 1e-16, sys.float_info.min):
            solve(GmConfig(rho=0.5, B=2, D=D, L=3))

    def test_nan_objective_message(self):
        lo, hi = analytic_bracket(burst_aged, 0.3)

        def aged(s):
            return math.nan if lo < s < hi else burst_aged(s)

        with pytest.raises(NumericalError) as exc:
            _solve_increasing(aged, 0.3, "nan objective")
        assert type(exc.value) is NumericalError
        assert str(exc.value) == "objective is NaN at 0.5409492916721832"


CHANNELS = {
    "sigma_single": single_channel,
    "sigma_multi": multi_channel,
    "sigma_two_point": two_point_channel,
}
SOLVES = [
    (single_channel, "single-burst test channel"),
    (multi_channel, "multi-burst test channel"),
    (two_point_channel, "two-point test channel"),
]


class TestRootContract:
    """Every solve returns a float s where the MMSE crosses D: mmse(s) >= D >
    mmse(the float below s).  The float MMSE is not monotone to the last ulp,
    so more than one float can cross, and the search path chooses among
    them."""

    @settings(max_examples=200, deadline=None)
    @given(
        rho=st.floats(1e-9, 1 - 1e-6),
        B=st.integers(1, 6),
        L=st.integers(1, 10),
        D=st.floats(1e-9, 1 - 1e-9),
    )
    def test_root_crosses_target(self, rho, B, L, D):
        cfg = GmConfig(rho=rho, B=B, D=D, L=L)
        got = production_bounds(cfg)
        for key, channel in CHANNELS.items():
            mmse, s = mmse_of(channel(cfg)), got[key]
            assert mmse(s) >= D > mmse(math.nextafter(s, 0.0)), key

    @settings(max_examples=200, deadline=None)
    @given(
        rho=st.floats(1e-9, 1 - 1e-6),
        B=st.integers(1, 6),
        L=st.integers(1, 10),
        D=st.one_of(st.floats(1e-9, 1 - 1e-9), st.floats(1 - 1e-9, 1.0, exclude_max=True)),
    )
    # the stalled regula falsi of `test_stalled_steps_end_in_bisection`
    @example(rho=0.9999999745332029, B=4, L=6, D=5.022044321876795e-07)
    # f is exactly 0.0 at the bracket's upper end, and every probe below it
    # is negative, so the root is that end, which `_root` never evaluates
    # (on all three channels in the first row)
    @example(rho=0.04222331254897838, B=6, L=5, D=0.243495134875217)
    @example(rho=0.13436411061379286, B=4, L=4, D=0.27979642591549525)
    # the upward bracket search of `test_equal_reciprocals_search_upward`
    @example(rho=0.8489506257621932, B=1, L=2, D=0.9999999999999989)
    def test_rate_is_the_roots_own_evaluation(self, rho, B, L, D):
        # each rate is (1/2) log2(aged(s) / D) at its own solved noise s, bit
        # for bit, whether the search ends on a point it evaluated or on the
        # bracket's end, and `_solve` evaluates aged no more once `_root`
        # has returned
        cfg = GmConfig(rho=rho, B=B, D=D, L=L)
        root = gm._root
        for channel, what in SOLVES:
            aged, seen, at_root = channel(cfg), [], []

            def counted_root(*args):
                found = root(*args)
                at_root.append(len(seen))
                return found

            try:
                with mock.patch.object(gm, "_root", counted_root):
                    rate, s = gm._solve(lambda s: seen.append(s) or aged(s), D, what)
            except PrecisionError as exc:  # rho and D both near 1: aged never exceeds D in floats
                assert "never exceeds D" in str(exc)
                continue
            assert at_root == [len(seen)], what
            assert rate == 0.5 * math.log2(aged(s) / D), what

    @settings(max_examples=200, deadline=None)
    @given(
        # small rho^(2B): the aged error rounds to 1 near D / (1 - D), where f can be >= 0
        rho=st.floats(1e-9, 0.2),
        B=st.integers(1, 8),
        L=st.integers(1, 10),
        D=st.floats(1e-6, 1 - 1e-6),
    )
    # f >= 0 at D / (1 - D): the bracket's first upper end is a point the lower
    # end stepped down from (first row), or `_root` probes one (second row);
    # in the third row the lower end steps down twice
    @example(rho=0.027868792489366287, B=4, L=6, D=0.3788381043594215)
    @example(rho=0.041476391678496365, B=6, L=10, D=0.34695624328978064)
    @example(rho=0.012804949720548773, B=5, L=8, D=0.6820182278621327)
    def test_no_point_is_evaluated_twice(self, rho, B, L, D):
        cfg = GmConfig(rho=rho, B=B, D=D, L=L)
        for channel, what in SOLVES:
            aged, seen = channel(cfg), []
            gm._solve(lambda s: seen.append(s) or aged(s), D, what)
            assert len(seen) == len(set(seen)), what

    def test_crossing_is_not_unique(self):
        # two floats six ulps apart both cross D; the Brent-based solve
        # returned the upper one, the regula falsi returns the lower
        cfg = GmConfig(rho=0.6343273418349201, B=1, D=0.8727693852104255)
        mmse = mmse_of(single_channel(cfg))
        got = solve_test_channel_single(cfg).sigma_z2
        brent = reference_solve(reference_aged(cfg)["single"], cfg.D, "single-burst test channel")
        assert (got, brent) == (8.36392280270143, 8.36392280270144)
        for s in (got, brent):
            assert mmse(s) >= cfg.D > mmse(math.nextafter(s, 0.0))

    def test_golden_stream_root(self):
        # `simulate --rho 0.9 --B 1 --D 0.2` solves this noise; its neighbouring
        # floats change the golden stream
        tc = solve_test_channel_single(GmConfig(rho=0.9, B=1, D=0.2))
        assert tc.sigma_z2.hex() == "0x1.6cca69de118c7p-2"

    def test_figure_evaluations_per_solve(self):
        # fig2 to fig5: 13.5 MMSE evaluations per solve for Brent's method on
        # the old fixed bracket [1e-12, 1e12], 8.1 on the analytic one, 8.2
        # for the regula falsi on the analytic one; 1536 solves before fig4
        # made each single-burst solve once per (rho, D), 1260 since
        counts = {"solves": 0, "evals": 0}
        solve = gm._solve_increasing

        def counted(aged, D, what):
            counts["solves"] += 1

            def fn(s):
                counts["evals"] += 1
                return aged(s)

            return solve(fn, D, what)

        with mock.patch.object(gm, "_solve_increasing", counted):
            for fig in ("fig2", "fig3", "fig4", "fig5"):
                cli._figure_rows(fig)
        assert counts["solves"] == 1260
        assert counts["evals"] / counts["solves"] <= 8.5


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

    @pytest.mark.needs_numpy
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

    @pytest.mark.needs_numpy
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

    @pytest.mark.needs_numpy
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
            mmse = mmse_of(multi_channel(cfg))
            vals = [mmse(s) for s in grid]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.needs_numpy
    @settings(max_examples=200, deadline=None)
    @given(
        rho=st.floats(1e-6, 1 - 1e-6),
        B=st.integers(1, 6),
        L=st.integers(1, 16),
        D=st.floats(1e-8, 1.0, exclude_max=True),
    )
    def test_distortion_map_monotone_on_bracket(self, rho, B, L, D):
        # nine log-spaced points across 24 decades of noise; the argument is
        # in rate_upper_multi's docstring
        cfg = GmConfig(rho=rho, B=B, D=D, L=L)
        probe = np.exp(np.linspace(math.log(1e-12), math.log(1e12), 9))
        mmse = mmse_of(multi_channel(cfg))
        vals = [mmse(float(s)) for s in probe]
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

    @pytest.mark.parametrize("entry", [
        lower_bound_single, high_res_rate, rate_upper_single, rate_upper_multi, naive_wz_rate, compute_bounds,
        finite_t_lower,
    ])
    def test_subnormal_target_is_precision_error(self, entry):
        # below the normal float range 1 / D overflows, and the converse and
        # the asymptote read inf; the test channels' noise would underflow
        def rate(D):
            cfg = GmConfig(rho=0.9, B=1, D=D, L=2)
            got = entry(cfg, 10) if entry is finite_t_lower else entry(cfg)
            return got.upper_multi if isinstance(got, GmBounds) else got[0] if isinstance(got, tuple) else got

        with pytest.raises(PrecisionError, match="below the normal float range"):
            rate(1e-310)
        assert math.isfinite(rate(sys.float_info.min))


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

    PINNED = sorted({row[:3] for row in TestSingleBurstChannel.FROZEN}
                    | {(rho, B, D) for rho, B, _, D, *_ in TestKernelParity.FROZEN_HEX})

    @pytest.mark.parametrize("rho, B, D", PINNED)
    def test_matches_decimal_closed_form(self, rho, B, D):
        # the closed-form MMSE, solved and evaluated in 50-digit decimal; in
        # floats that form cancels when the MMSE is small (a rate 4.7e-8 low
        # at (0.9, 1, 1e-8), 9.8e-10 high at (0.999, 1, 1e-6))
        got = naive_wz_rate(GmConfig(rho=rho, B=B, D=D))
        assert abs(got - two_point_rate_decimal(rho, B, D)) <= 1e-13

    @settings(max_examples=300, deadline=None)
    @given(rho=st.floats(0.05, 0.99), B=st.integers(1, 5), log_d=st.floats(-10.0, -0.02))
    @example(rho=0.9, B=1, log_d=-8.0)
    def test_ordered_above_asymptote_and_converse(self, rho, B, log_d):
        # an achievable rate: at least the converse, and at least the
        # asymptote, since the aged error 1 - c (1 - pre) is at least 1 - c
        cfg = GmConfig(rho=rho, B=B, D=10.0**log_d)
        nwz = naive_wz_rate(cfg)
        assert nwz >= high_res_rate(cfg)
        assert nwz >= lower_bound_single(cfg) - 1e-14


def _horizon_steps(B: int) -> list[int]:
    """t - B - 1 for t = B + 1 to B + 99 and t = round(10**(k / 8)), k = 16 to 48."""
    return sorted(set(range(99)) | {round(10 ** (k / 8)) - B - 1 for k in range(16, 49)})


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

    def test_near_unit_correlation_solves(self):
        # near rho = 1 a damped fixed-point iteration stalls on the first row
        # and overshoots the converse on the second (0.6754909619598553)
        finite_t_lower(GmConfig(rho=0.9999999967691202, B=4, D=0.0005104807849912838), 10**6)
        cfg = GmConfig(rho=0.9999999993950323, B=5, D=3.151797898663912e-09)
        assert finite_t_lower(cfg, 10**6) <= 0.6754909600726143

    @settings(max_examples=200, deadline=None)
    @given(
        rho=st.one_of(st.floats(0.05, 0.99), st.floats(1.0, 12.0).map(lambda k: 1.0 - 10.0**-k)),
        B=st.integers(1, 5),
        D=st.floats(math.log10(sys.float_info.min), 0.0).map(lambda e: max(10.0**e, sys.float_info.min)),
        steps=st.lists(st.one_of(st.integers(0, 100), st.integers(0, 10**400)), min_size=1, max_size=6),
    )
    # near rho = 1 a damped fixed-point iteration stalled on the first row and
    # overshot lower_bound_single on the second; each row over t = B + 1 to
    # B + 99 and 100 to 10**6 at eight points a decade
    @example(rho=0.9999999967691202, B=4, D=0.0005104807849912838, steps=_horizon_steps(4))
    @example(rho=0.9999999993950323, B=5, D=3.151797898663912e-09, steps=_horizon_steps(5))
    @example(rho=0.9, B=1, D=0.2, steps=_horizon_steps(1))
    @example(rho=0.5, B=3, D=1e-6, steps=_horizon_steps(3))
    def test_in_the_bracket_and_non_decreasing_in_t(self, rho, B, D, steps):
        cfg = GmConfig(rho=rho, B=B, D=D)
        lo, hi = high_res_rate(cfg), lower_bound_single(cfg)
        rates = [finite_t_lower(cfg, B + 1 + k) for k in sorted(steps)]
        assert all(math.isfinite(r) and lo <= r <= hi for r in rates), (lo, hi, rates)
        assert rates == sorted(rates)

    def test_below_the_normal_float_range_is_precision_error(self):
        with pytest.raises(PrecisionError):
            finite_t_lower(GmConfig(rho=0.9, B=1, D=1e-310), 10)


class TestBoundChain:
    @pytest.mark.needs_numpy
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
            assert bounds.lower <= bounds.upper_single <= bounds.upper_multi
            count += 1

    @settings(max_examples=500, deadline=None)
    @given(
        rho=st.floats(1e-9, 1 - 1e-6),
        B=st.integers(1, 6),
        L=st.integers(1, 10),
        D=st.floats(1e-9, 1 - 1e-9),
    )
    def test_every_legal_row_solves(self, rho, B, L, D):
        # near D = 1 the old fixed bracket [1e-12, 1e12] failed: 3280 of 20,000
        # rows with 1 - D log-uniform in [1e-9, 0.1]
        cfg = GmConfig(rho=rho, B=B, D=D, L=L)
        bounds = compute_bounds(cfg)
        rates = (bounds.lower, bounds.upper_single, bounds.upper_multi, naive_wz_rate(cfg))
        assert all(math.isfinite(r) for r in rates)

    def test_invariant_enforced(self):
        # misordered output on legal input is a numerical failure, exit 2;
        # the order is exact, so one ulp of misorder fails too
        with pytest.raises(NumericalError):
            GmBounds(lower=0.9, upper_single=0.5, high_res=0.1, sigma_z2_single=0.1, upper_multi=0.5)
        with pytest.raises(NumericalError):
            GmBounds(lower=0.0, upper_single=math.nextafter(0.5, 1.0), high_res=0.1,
                     sigma_z2_single=0.1, upper_multi=0.5)

    @pytest.mark.parametrize("rho, B, L, D", [
        (0.05681160396552032, 4, 2, 0.8068556174340581),  # lower above upper_single by 1.4e-16
        (0.943104047829242, 4, 6, 0.002837212261098407),  # upper_single above upper_multi by 4.4e-16
    ])
    def test_rounding_misorder_clamped(self, rho, B, L, D):
        cfg = GmConfig(rho=rho, B=B, D=D, L=L)
        lower, single, multi = lower_bound_single(cfg), rate_upper_single(cfg), rate_upper_multi(cfg)[0]
        assert lower > single or single > multi
        bounds = compute_bounds(cfg)
        assert bounds.upper_single == single
        assert (bounds.lower, bounds.upper_multi) == (min(lower, single), max(multi, single))

    def test_real_misorder_raises(self):
        # near rho = 1 the kernels lose digits to 1 - rho^2; a gap of 6.6e-9
        # is no rounding
        with pytest.raises(NumericalError, match="multi-burst upper bound by 6.627e-09"):
            compute_bounds(GmConfig(rho=0.9999999988205923, B=4, D=3.18120098594214e-10, L=8))

    @settings(max_examples=300, deadline=None)
    @given(
        rho=st.floats(1e-9, 1 - 1e-12),
        B=st.integers(1, 8),
        L=st.integers(1, 12),
        D=st.floats(1e-300, 1.0, exclude_max=True),
    )
    def test_exactly_ordered_or_exit_2(self, rho, B, L, D):
        # NumericalError (PrecisionError among them) and ConvergenceError are
        # the errors the CLI maps to exit 2
        try:
            bounds = compute_bounds(GmConfig(rho=rho, B=B, D=D, L=L))
        except (NumericalError, ConvergenceError):
            return
        rates = (bounds.lower, bounds.upper_single, bounds.upper_multi, bounds.high_res)
        assert all(math.isfinite(r) for r in rates)
        assert 0.0 <= bounds.lower <= bounds.upper_single <= bounds.upper_multi

    def test_unit_distortion_row(self):
        bounds = compute_bounds(GmConfig(rho=0.9, B=1, D=1.0))
        assert bounds.lower == bounds.upper_single == bounds.upper_multi == 0.0


def counted(call, *args):
    """(call's result, the converse evaluations and the test-channel solves
    by channel that it made)."""
    counts = Counter()
    solve, converse = gm._solve_increasing, gm._lower  # `lower_bound_single` and `bound_rows` call `_lower`

    def counted_solve(aged, D, what):
        counts[what] += 1
        return solve(aged, D, what)

    def counted_converse(*args):
        counts["converse"] += 1
        return converse(*args)

    with mock.patch.object(gm, "_solve_increasing", counted_solve), \
            mock.patch.object(gm, "_lower", counted_converse):
        return call(*args), dict(counts)


class TestSolveReuse:
    """The converse and the single-burst solve do not depend on the guard
    interval L, so a figure over L makes them once per (rho, D), and keeps
    nothing after the command."""

    def test_fig4_cells_equal_compute_bounds(self):
        header, rows = cli._figure_rows("fig4")
        assert header[-3:] == ["lower", "upper_single", "upper_multi"] and len(rows) == 368
        for rho, B, L, D, *values in rows:
            b = compute_bounds(GmConfig(rho=rho, B=B, D=D, L=L))
            assert list(map(repr, values)) == [repr(b.lower), repr(b.upper_single), repr(b.upper_multi)]

    def test_fig4_solves_each_channel_once_per_command(self, tmp_path):
        # 46 rho by 2 D single-burst channels, each under 4 guard intervals
        outputs = []
        for k in range(2):
            out = tmp_path / f"fig4-{k}.csv"
            code, counts = counted(cli.main, ["figure", "--id", "fig4", "--out", str(out)])
            assert code == 0
            assert counts == {"converse": 92, "single-burst test channel": 92, "multi-burst test channel": 368}
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_compute_bounds_solves_each_channel_once(self):
        _, counts = counted(compute_bounds, GmConfig(rho=0.9, B=2, D=0.2, L=3))
        assert counts == {"converse": 1, "single-burst test channel": 1, "multi-burst test channel": 1}

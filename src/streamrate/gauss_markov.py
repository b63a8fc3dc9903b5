"""Closed-form and fixed-point rate bounds for the unit-variance Gauss-Markov
source s_i = rho * s_{i-1} + n_i streamed over burst-erasure channels with
immediate recovery (no grace window) and mean-square distortion target D.

Rates are in bits.  Each achievable (upper) bound is one burst channel over
an additive Gaussian test channel u = s + z: the error of the last state
estimated before a loss (the steady-state filter error for a single burst, the
estimate after the guard interval for repeated bursts, u_{t-B-1} alone for the
two-point reference), aged over the lost slots and joined by the fresh u_t.
One solve serves all three: sigma_z2 is solved so that MMSE hits D, and the
rate is the conditional mutual information.  The converse (lower) bound is the
positive root of a quadratic in 2^(2R).  Every steady-state limit is evaluated
in closed form; the brute-force Gaussian conditioning in `streamrate.oracle`
provides the independent finite-horizon check.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial

from .errors import (
    ConvergenceError,
    InfeasibleDistortionError,
    NumericalError,
    PrecisionError,
    ValidationError,
    check_int,
    check_open_unit,
    check_variance,
)

SIGMA_BRACKET = (1e-12, 1e12)
GUARD_CAP = 10**4  # eta_multi steps through the guard, once per objective evaluation


@dataclass(frozen=True)
class GmConfig:
    """Problem instance: correlation rho, max burst B, guard interval L
    (multi-burst model only), distortion target D.  Source variance is 1."""

    rho: float
    B: int
    D: float
    L: int = 1

    def __post_init__(self):
        check_open_unit("rho", self.rho)
        if not 0.0 < self.D <= 1.0:
            raise ValidationError("D must lie in (0, 1] for a unit-variance source")
        check_int("B", self.B, 1)
        check_int("L", self.L, 1, GUARD_CAP)


@dataclass(frozen=True)
class TestChannel:
    """Additive Gaussian test channel u = s + z with noise variance sigma_z2."""

    __test__ = False  # not a test case, despite the rate-distortion name

    sigma_z2: float

    def __post_init__(self):
        check_variance("sigma_z2", self.sigma_z2)


@dataclass(frozen=True)
class GmBounds:
    """Bound chain for one configuration: lower <= upper_single <= upper_multi."""

    lower: float
    upper_single: float
    high_res: float
    sigma_z2_single: float | None
    upper_multi: float | None = None
    sigma_z2_multi: float | None = None

    def __post_init__(self):
        tol = 1e-9
        if min(self.lower, self.upper_single, self.high_res) < -tol:
            raise NumericalError("rates must be nonnegative")
        if self.lower > self.upper_single + tol:
            raise NumericalError("lower bound exceeds single-burst upper bound")
        if self.upper_multi is not None and self.upper_single > self.upper_multi + tol:
            raise NumericalError("single-burst upper bound exceeds multi-burst upper bound")


def lower_bound_closed_form(rho: float, B: int, D: float) -> float:
    """Converse rate as an explicit formula; no argument validation.

    R = (1/2) log2((D rho^2 + 1 - rho^(2(B+1)) + sqrt(delta)) / (2 D)) with
    delta = (D rho^2 + 1 - rho^(2(B+1)))^2 - 4 D rho^2 (1 - rho^(2B)).  With
    x = rho^2 and y = rho^(2B) that is the sum of two nonnegative terms,
    delta = (x D + y (1 - x) - (1 - y))^2 + 4 y (1 - y) (1 - x), so no rounding
    makes it negative.  1 - rho^2 is (1 - rho)(1 + rho) and 1 - rho^(2k) is
    -expm1(2k log rho), so neither loses its digits as rho nears 1.
    """
    x, y, log_rho = rho**2, rho ** (2 * B), math.log(rho)
    one_m_x, one_m_y = (1.0 - rho) * (1.0 + rho), -math.expm1(2 * B * log_rho)
    b = D * x - math.expm1(2 * (B + 1) * log_rho)
    delta = (x * D + y * one_m_x - one_m_y) ** 2 + 4.0 * y * one_m_y * one_m_x
    return 0.5 * math.log2((b + math.sqrt(delta)) / (2.0 * D))


def lower_bound_single(cfg: GmConfig) -> float:
    """Converse bound for the single-burst channel: (1/2) log2 x for the root
    x > 1 of D x^2 - (D rho^2 + 1 - rho^(2(B+1))) x + rho^2 (1 - rho^(2B)) = 0,
    by the closed form `lower_bound_closed_form`; 0 when D >= 1.

    The quadratic is negative at x = 1 for D < 1, so exactly one root lies
    above 1.  Where that root is within rounding of 1 (rho and D both near 1)
    the closed form can read about -1e-16, so the rate is floored at 0.  The
    tests check the closed form against a generic polynomial root finder.
    """
    if cfg.D >= 1.0:
        return 0.0
    return max(0.0, lower_bound_closed_form(cfg.rho, cfg.B, cfg.D))


def kalman_steady_sigma(rho: float, sigma_z2: float) -> float:
    """Steady-state one-step prediction error of the scalar Kalman filter that
    tracks the source through the test channel."""
    check_open_unit("rho", rho)
    check_variance("sigma_z2", sigma_z2, zero_ok=True)
    return _steady_sigma(1.0 - rho**2, sigma_z2)


def _steady_sigma(q: float, s: float) -> float:
    """`kalman_steady_sigma` at noise s, with q = 1 - rho^2; unchecked."""
    return 0.5 * math.sqrt((1.0 - s) ** 2 * q**2 + 4.0 * s * q) + 0.5 * q * (1.0 - s)


def _eta(a: float, q: float, p: float, steps: int, s: float) -> float:
    """`eta_multi` from error p over `steps` guard steps at noise s; a = rho^2, q = 1 - a."""
    for _ in range(steps):
        p = a * p + q
        p = p * s / (p + s)
    return p


def _burst(pre, c: float):
    """(pre, aged, mmse) of the noise s alone: the pre-burst error pre(s) aged by
    c = rho^(2n) over n lost slots, and the MMSE with the fresh observation."""
    def aged(s: float) -> float:
        return 1.0 - c * (1.0 - pre(s))

    def mmse(s: float) -> float:
        return 1.0 / (1.0 / s + 1.0 / aged(s))

    return pre, aged, mmse


def _single_channel(cfg: GmConfig):
    return _burst(partial(_steady_sigma, 1.0 - cfg.rho**2), cfg.rho ** (2 * cfg.B))


def _multi_channel(cfg: GmConfig):
    a = cfg.rho * cfg.rho
    return _burst(partial(_eta, a, 1.0 - a, cfg.D, cfg.L - 1), cfg.rho ** (2 * (cfg.B + 1)))


def _two_point_channel(cfg: GmConfig):
    # s / (1 + s): the error of s_{t-B-1} given u_{t-B-1} alone
    return _burst(lambda s: s / (1.0 + s), cfg.rho ** (2 * (cfg.B + 1)))


def gamma_single(cfg: GmConfig, tc: TestChannel) -> float:
    """Steady-state decoder MMSE for the single-burst worst case: harmonic sum
    of the fresh observation and the aged pre-burst estimate.  Strictly
    increasing in the test-channel noise."""
    return _single_channel(cfg)[2](tc.sigma_z2)


def _brentq(f, xpre: float, xcur: float, fpre: float, fcur: float) -> tuple[float, float]:
    """Root of f between xpre and xcur, where f changes sign, by Brent's method,
    with the value of f there; fpre and fcur are the values of f at the two
    ends.

    A step-for-step port of SciPy's brentq.c (Brent 1973, ch. 4) with xtol =
    1e-14, rtol = 4 eps and 100 steps, so it returns the same float after the
    same evaluations.  Raises NumericalError on a NaN value or no sign change,
    ConvergenceError when the steps run out.

    The objective contract: a plain float in, a float out, no validation per
    evaluation, and the configuration's constants computed once per solve.
    """
    xtol, rtol = 1e-14, 4 * sys.float_info.epsilon
    if math.isnan(fpre) or math.isnan(fcur):
        raise NumericalError(f"objective is NaN at an end of [{xpre!r}, {xcur!r}]")
    if fpre == 0.0 or fcur == 0.0:
        return (xpre, fpre) if fpre == 0.0 else (xcur, fcur)
    if (fpre < 0.0) == (fcur < 0.0):
        raise NumericalError("objective has the same sign at both ends of the bracket")
    # each |f| travels with its f; fpre is never 0 here, a zero fcur returns first
    afpre, afcur = abs(fpre), abs(fcur)
    xblk = fblk = afblk = spre = scur = 0.0
    for _ in range(100):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk, afblk = xpre, fpre, afpre
            spre = scur = xcur - xpre
        if afblk < afcur:
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
            afpre, afcur, afblk = afcur, afblk, afcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        abis = abs(sbis)
        if fcur == 0.0 or abis < delta:
            return xcur, fcur
        aspre = abs(spre)
        if aspre > delta and afcur < afpre:
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = 3 * abis - delta
            if 2 * abs(stry) < (bound if bound < aspre else aspre):  # min(aspre, bound)
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre, afpre = xcur, fcur, afcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        if fcur != fcur:
            raise NumericalError(f"objective is NaN at {xcur!r}")
        afcur = abs(fcur)
    raise ConvergenceError(f"Brent's method did not converge in 100 steps (at {xcur!r})")


def _solve_increasing(fn, target: float, what: str) -> float:
    """Root of fn(sigma_z2) = target for fn increasing in sigma_z2, solved by
    Brent's method in log space over SIGMA_BRACKET; the residual at the root,
    which Brent's last step evaluated, must be at most 1e-10.  fn keeps
    `_brentq`'s objective contract: a plain float in, a float out, no
    validation per evaluation, the configuration's constants computed once.
    """
    lo, hi = SIGMA_BRACKET

    def f(y: float) -> float:
        return fn(math.exp(y)) - target

    # checked where Brent starts: exp(log(lo)) != lo and exp(log(hi)) != hi
    y_lo, y_hi = math.log(lo), math.log(hi)
    f_lo, f_hi = f(y_lo), f(y_hi)
    if f_lo > 0.0:
        raise PrecisionError(
            f"{what}: target {target:.3e} below resolution at sigma_z2 = {lo:.0e} "
            f"(residual {f_lo:.3e}); the required noise would underflow"
        )
    if f_hi < 0.0:
        raise InfeasibleDistortionError(
            f"{what}: no root in bracket [{lo:.0e}, {hi:.0e}] (residual at top {f_hi:.3e})"
        )
    y, f_y = _brentq(f, y_lo, y_hi, f_lo, f_hi)
    residual = abs(f_y)
    if not residual <= 1e-10:
        raise NumericalError(f"{what}: solver residual {residual:.3e} exceeds 1e-10")
    return math.exp(y)


def _rate(channel, D: float, s: float) -> float:
    """I(s_t; u_t | the past) = (1/2) log2((aged + s) / s), at a root of mmse(s) = D."""
    return 0.5 * math.log2(channel[1](s) / D)  # there (aged + s) / s = aged / D


def _solve(channel, D: float, what: str) -> tuple[float, float]:
    """(rate, sigma_z2) of the burst channel whose MMSE is D."""
    s = _solve_increasing(channel[2], D, what)
    return _rate(channel, D, s), s


def solve_test_channel_single(cfg: GmConfig) -> TestChannel:
    """Noise variance whose steady-state single-burst MMSE equals D."""
    if cfg.D >= 1.0:
        raise ValidationError("D >= 1 needs no test channel (rate is zero)")
    return TestChannel(_solve_increasing(_single_channel(cfg)[2], cfg.D, "single-burst test channel"))


def rate_upper_single(cfg: GmConfig) -> float:
    """Achievable rate for the single-burst channel:
    (1/2) log2((1 - rho^(2B) (1 - Sigma)) / D) at the solved test channel."""
    if cfg.D >= 1.0:
        return 0.0
    return _rate(_single_channel(cfg), cfg.D, solve_test_channel_single(cfg).sigma_z2)


def eta_multi(cfg: GmConfig, tc: TestChannel) -> float:
    """MMSE of the pre-burst state from the D-noisy older state plus the L-1
    most recent intact observations.

    A scalar Kalman recursion: the older state has error variance D, and each
    of the L-1 steps predicts, p <- rho^2 p + 1 - rho^2, then updates with a
    test-channel observation, p <- p sigma_z2 / (p + sigma_z2).
    """
    if cfg.D >= 1.0:
        raise ValidationError("eta is defined for D < 1")
    return _multi_channel(cfg)[0](tc.sigma_z2)


def rate_upper_multi(cfg: GmConfig) -> tuple[float, TestChannel | None]:
    """Achievable rate for repeated bursts (length <= B) separated by guard
    intervals of at least L intact packets.

    Solves D = [1/sigma_z2 + 1/(1 - rho^(2(B+1)) (1 - eta))]^{-1} for the test
    channel and returns (1/2) log2((1 - rho^(2(B+1)) (1 - eta)) / D).

    The map is increasing in sigma_z2, so the bracketed solve has one root:
    the predict step is increasing in p, the update p sigma_z2 / (p + sigma_z2)
    is increasing in p and in sigma_z2, so eta is increasing in sigma_z2; the
    aged term is increasing in eta, and the harmonic combination
    1 / (1/a + 1/b) is increasing in both a and b.
    """
    if cfg.D >= 1.0:
        return 0.0, None
    rate, sigma = _solve(_multi_channel(cfg), cfg.D, "multi-burst test channel")
    return rate, TestChannel(sigma)


def high_res_rate(cfg: GmConfig) -> float:
    """Shared small-D asymptote (1/2) log2((1 - rho^(2(B+1))) / D); independent
    of the guard interval, clamped at zero."""
    return max(0.0, 0.5 * math.log2((1.0 - cfg.rho ** (2 * (cfg.B + 1))) / cfg.D))


def naive_wz_rate(cfg: GmConfig) -> float:
    """Rate of coding against the most recent pre-burst observation only:
    I(s_t; u_t | u_{t-B-1}) with sigma_z2 matched so the two-point MMSE is D."""
    if cfg.D >= 1.0:
        return 0.0
    return _solve(_two_point_channel(cfg), cfg.D, "two-point test channel")[0]


def finite_t_lower(cfg: GmConfig, t: int) -> float:
    """Converse bound when decoding at finite time t >= B+1: the smallest
    R >= 0 with R >= phi(R), where the geometric term of phi grows with t.
    Solved by damped fixed-point iteration; non-decreasing in t and converging
    to lower_bound_single as t grows.
    """
    check_int("t", t, cfg.B + 1)
    if cfg.D >= 1.0:
        return 0.0

    rho2 = cfg.rho**2
    head = cfg.rho ** (2 * (cfg.B + 1)) * (1.0 - rho2) / cfg.D
    tail = (1.0 - cfg.rho ** (2 * (cfg.B + 1))) / cfg.D
    m = int(t) - cfg.B - 1

    def phi(r: float) -> float:
        x = 2.0 ** (2.0 * r)
        return 0.5 * math.log2(head / (x - rho2) * (1.0 - (rho2 / x) ** m) + tail)

    if phi(0.0) <= 0.0:
        return 0.0
    r = max(phi(0.0), 0.0)
    for _ in range(10**5):
        nxt = 0.5 * (r + max(phi(r), 0.0))
        if abs(nxt - r) < 1e-13:
            return nxt
        r = nxt
    raise ConvergenceError("fixed-point iteration for the finite-horizon bound stalled")


def compute_bounds(cfg: GmConfig) -> GmBounds:
    """Assemble the full bound chain for one configuration."""
    lower = lower_bound_single(cfg)
    if cfg.D >= 1.0:
        return GmBounds(
            lower=0.0, upper_single=0.0, high_res=high_res_rate(cfg), sigma_z2_single=None,
            upper_multi=0.0, sigma_z2_multi=None,
        )
    tc = solve_test_channel_single(cfg)
    multi, tc_multi = rate_upper_multi(cfg)
    return GmBounds(
        lower=lower,
        upper_single=_rate(_single_channel(cfg), cfg.D, tc.sigma_z2),
        high_res=high_res_rate(cfg),
        sigma_z2_single=tc.sigma_z2,
        upper_multi=multi,
        sigma_z2_multi=tc_multi.sigma_z2,
    )

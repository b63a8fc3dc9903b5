"""Closed-form and fixed-point rate bounds for the unit-variance Gauss-Markov
source s_i = rho * s_{i-1} + n_i streamed over burst-erasure channels with
immediate recovery (no grace window) and mean-square distortion target D.

Rates are in bits.  The achievable (upper) bounds come from an additive
Gaussian test channel u = s + z: the noise variance sigma_z2 is solved so the
decoder's steady-state MMSE hits D, and the rate is the corresponding
conditional mutual information.  The converse (lower) bound is the positive
root of a quadratic in 2^(2R).  Every steady-state limit is evaluated in
closed form; the brute-force Gaussian conditioning in `streamrate.oracle`
provides the independent finite-horizon check.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

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
            raise ValidationError("rates must be nonnegative")
        if self.lower > self.upper_single + tol:
            raise ValidationError("lower bound exceeds single-burst upper bound")
        if self.upper_multi is not None and self.upper_single > self.upper_multi + tol:
            raise ValidationError("single-burst upper bound exceeds multi-burst upper bound")


def lower_bound_closed_form(rho: float, B: int, D: float) -> float:
    """Converse rate as an explicit formula; no argument validation.

    R = (1/2) log2((D rho^2 + 1 - rho^(2(B+1)) + sqrt(delta)) / (2 D)) with
    delta = (D rho^2 + 1 - rho^(2(B+1)))^2 - 4 D rho^2 (1 - rho^(2B)).
    """
    b = D * rho**2 + 1.0 - rho ** (2 * (B + 1))
    delta = b * b - 4.0 * D * rho**2 * (1.0 - rho ** (2 * B))
    if delta < 0.0:
        if delta < -1e-13:
            raise NumericalError(f"negative discriminant {delta:.3e}")
        delta = 0.0
    return 0.5 * math.log2((b + math.sqrt(delta)) / (2.0 * D))


def lower_bound_single(cfg: GmConfig) -> float:
    """Converse bound for the single-burst channel: (1/2) log2 x for the root
    x > 1 of D x^2 - (D rho^2 + 1 - rho^(2(B+1))) x + rho^2 (1 - rho^(2B)) = 0,
    by the closed form `lower_bound_closed_form`; 0 when D >= 1.

    The quadratic is negative at x = 1 for D < 1, so exactly one root lies
    above 1.  The tests check the closed form against a generic polynomial
    root finder.
    """
    if cfg.D >= 1.0:
        return 0.0
    return lower_bound_closed_form(cfg.rho, cfg.B, cfg.D)


def kalman_steady_sigma(rho: float, sigma_z2: float) -> float:
    """Steady-state one-step prediction error of the scalar Kalman filter that
    tracks the source through the test channel."""
    check_open_unit("rho", rho)
    check_variance("sigma_z2", sigma_z2, zero_ok=True)
    return _steady_sigma(rho, sigma_z2)


def _steady_sigma(rho: float, sigma_z2: float) -> float:
    """`kalman_steady_sigma` on checked arguments: the objectives' kernel."""
    one_m_r2 = 1.0 - rho**2
    return 0.5 * math.sqrt(
        (1.0 - sigma_z2) ** 2 * one_m_r2**2 + 4.0 * sigma_z2 * one_m_r2
    ) + 0.5 * one_m_r2 * (1.0 - sigma_z2)


def gamma_single(cfg: GmConfig, tc: TestChannel) -> float:
    """Steady-state decoder MMSE for the single-burst worst case: harmonic sum
    of the fresh observation and the aged pre-burst estimate.  Strictly
    increasing in the test-channel noise."""
    return 1.0 / (1.0 / tc.sigma_z2 + 1.0 / _single_aged(cfg, tc.sigma_z2))


def _single_aged(cfg: GmConfig, sigma_z2: float) -> float:
    """1 - rho^(2B) (1 - Sigma): the steady-state error aged across the burst."""
    return 1.0 - cfg.rho ** (2 * cfg.B) * (1.0 - _steady_sigma(cfg.rho, sigma_z2))


def _brentq(f, xpre: float, xcur: float, fpre: float, fcur: float) -> tuple[float, float]:
    """Root of f between xpre and xcur, where f changes sign, by Brent's method,
    with the value of f there; fpre and fcur are the values of f at the two
    ends.

    A step-for-step port of SciPy's brentq.c (Brent 1973, ch. 4) with xtol =
    1e-14, rtol = 4 eps and 100 steps, so it returns the same float after the
    same evaluations.  Raises NumericalError on a NaN value or no sign change,
    ConvergenceError when the steps run out.
    """
    xtol, rtol = 1e-14, 4 * sys.float_info.epsilon

    def call(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise NumericalError(f"objective is NaN at {x!r}")
        return fx

    if math.isnan(fpre) or math.isnan(fcur):
        raise NumericalError(f"objective is NaN at an end of [{xpre!r}, {xcur!r}]")
    if fpre == 0.0 or fcur == 0.0:
        return (xpre, fpre) if fpre == 0.0 else (xcur, fcur)
    if (fpre < 0.0) == (fcur < 0.0):
        raise NumericalError("objective has the same sign at both ends of the bracket")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, fcur
        stry = math.inf  # bisect unless interpolation gives a short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise ConvergenceError(f"Brent's method did not converge in 100 steps (at {xcur!r})")


def _solve_increasing(fn, target: float, what: str) -> float:
    """Root of fn(sigma_z2) = target for fn increasing in sigma_z2, solved by
    Brent's method in log space over SIGMA_BRACKET; the residual at the root,
    which Brent's last step evaluated, must be at most 1e-10."""
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


def solve_test_channel_single(cfg: GmConfig) -> TestChannel:
    """Noise variance whose steady-state single-burst MMSE equals D."""
    if cfg.D >= 1.0:
        raise ValidationError("D >= 1 needs no test channel (rate is zero)")
    return TestChannel(_solve_increasing(
        lambda s: gamma_single(cfg, TestChannel(s)), cfg.D, "single-burst test channel"
    ))


def _single_rate(cfg: GmConfig, tc: TestChannel) -> float:
    return 0.5 * math.log2(_single_aged(cfg, tc.sigma_z2) / cfg.D)


def rate_upper_single(cfg: GmConfig) -> float:
    """Achievable rate for the single-burst channel:
    (1/2) log2((1 - rho^(2B) (1 - Sigma)) / D) at the solved test channel."""
    if cfg.D >= 1.0:
        return 0.0
    return _single_rate(cfg, solve_test_channel_single(cfg))


def eta_multi(cfg: GmConfig, tc: TestChannel) -> float:
    """MMSE of the pre-burst state from the D-noisy older state plus the L-1
    most recent intact observations.

    A scalar Kalman recursion: the older state has error variance D, and each
    of the L-1 steps predicts, p <- rho^2 p + 1 - rho^2, then updates with a
    test-channel observation, p <- p sigma_z2 / (p + sigma_z2).
    """
    if cfg.D >= 1.0:
        raise ValidationError("eta is defined for D < 1")
    a = cfg.rho * cfg.rho
    q = 1.0 - a
    s2 = tc.sigma_z2
    p = cfg.D
    for _ in range(cfg.L - 1):
        p = a * p + q
        p = p * s2 / (p + s2)
    return p


def _multi_aged(cfg: GmConfig, sigma_z2: float) -> float:
    """1 - rho^(2(B+1)) (1 - eta): the pre-burst error aged across the burst."""
    return 1.0 - cfg.rho ** (2 * (cfg.B + 1)) * (1.0 - eta_multi(cfg, TestChannel(sigma_z2)))


def _multi_distortion(cfg: GmConfig, sigma_z2: float) -> float:
    return 1.0 / (1.0 / sigma_z2 + 1.0 / _multi_aged(cfg, sigma_z2))


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
    sigma = _solve_increasing(
        lambda s: _multi_distortion(cfg, s), cfg.D, "multi-burst test channel"
    )
    return 0.5 * math.log2(_multi_aged(cfg, sigma) / cfg.D), TestChannel(sigma)


def high_res_rate(cfg: GmConfig) -> float:
    """Shared small-D asymptote (1/2) log2((1 - rho^(2(B+1))) / D); independent
    of the guard interval, clamped at zero."""
    return max(0.0, 0.5 * math.log2((1.0 - cfg.rho ** (2 * (cfg.B + 1))) / cfg.D))


def _two_point_mmse(rho: float, B: int, sigma_z2: float) -> float:
    """MMSE of s_t from the stale observation u_{t-B-1} and the fresh u_t."""
    r = rho ** (B + 1)
    v = 1.0 + sigma_z2
    return 1.0 - (v * (1.0 + r * r) - 2.0 * r * r) / (v * v - r * r)


def naive_wz_rate(cfg: GmConfig) -> float:
    """Rate of coding against the most recent pre-burst observation only:
    I(s_t; u_t | u_{t-B-1}) with sigma_z2 matched so the two-point MMSE is D."""
    if cfg.D >= 1.0:
        return 0.0
    sigma = _solve_increasing(
        lambda s: _two_point_mmse(cfg.rho, cfg.B, s), cfg.D, "two-point test channel"
    )
    r = cfg.rho ** (cfg.B + 1)
    v = 1.0 + sigma
    var_u_given_old = v - r * r / v
    return 0.5 * math.log2(var_u_given_old / sigma)


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
        upper_single=_single_rate(cfg, tc),
        high_res=high_res_rate(cfg),
        sigma_z2_single=tc.sigma_z2,
        upper_multi=multi,
        sigma_z2_multi=tc_multi.sigma_z2,
    )

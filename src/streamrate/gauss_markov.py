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
import struct
import sys

from .errors import (
    ConvergenceError,
    NumericalError,
    PrecisionError,
    Record,
    ValidationError,
    check_int,
    check_open_unit,
    check_probability,
    check_variance,
    source_constants,
)

_SEARCH_STEPS = 64  # steps of each bracket search in `_bracket`
_NARROW = 4.0 * sys.float_info.epsilon  # `_root` stops its regula falsi within this relative width
_FLOAT, _BITS = struct.Struct("<d"), struct.Struct("<q")
GUARD_CAP = 10**4  # eta_multi steps through the guard, once per objective evaluation
# B enters the bounds only through rho^(2B), 1 - rho^(2B) and the same at
# B + 1.  The float rho nearest 1, 1 - 2**-53, has log(rho) = -2**-53, and
# exp(x) rounds to 0.0 below x = -745.13, so at every float rho < 1, rho^(2B)
# is 0.0 and 1 - rho^(2B) is 1.0 once B > 745.13 * 2**52 = 3.36e18.  No
# output changes past that B; the cap sits just above it, where 2B still has
# a float (at B = 10**400 it has none, and `source_constants` overflowed).
BURST_CAP = 2**62
_LN2 = math.log(2.0)


class GmConfig(Record):
    """Problem instance: correlation rho, max burst B, guard interval L
    (multi-burst model only), distortion target D.  Source variance is 1."""

    __slots__ = _fields = ("rho", "B", "D", "L")

    def __init__(self, rho: float, B: int, D: float, L: int = 1):
        rho = check_open_unit("rho", rho)
        D = check_probability("D", D, zero_ok=False)  # a unit-variance source
        B = check_int("B", B, 1, BURST_CAP)
        L = check_int("L", L, 1, GUARD_CAP)
        Record.__init__(self, rho, B, D, L)


class TestChannel(Record):
    """Additive Gaussian test channel u = s + z with noise variance sigma_z2."""

    __test__ = False  # not a test case, despite the rate-distortion name
    __slots__ = _fields = ("sigma_z2",)

    def __init__(self, sigma_z2: float):
        Record.__init__(self, check_variance("sigma_z2", sigma_z2))


class GmBounds(Record):
    """Bound chain for one configuration: lower <= upper_single <= upper_multi, exactly."""

    __slots__ = _fields = (
        "lower", "upper_single", "high_res", "sigma_z2_single", "upper_multi", "sigma_z2_multi",
    )

    def __init__(self, lower: float, upper_single: float, high_res: float, sigma_z2_single: float | None,
                 upper_multi: float, sigma_z2_multi: float | None = None):
        if min(lower, upper_single, high_res, upper_multi) < 0.0:
            raise NumericalError("rates must be nonnegative")
        _check_order(lower, upper_single, "lower bound exceeds single-burst upper bound")
        _check_order(upper_single, upper_multi, "single-burst upper bound exceeds multi-burst upper bound")
        Record.__init__(self, lower, upper_single, high_res, sigma_z2_single, upper_multi, sigma_z2_multi)


def _check_order(low: float, high: float, what: str, rounding: float = 0.0) -> None:
    """Raise NumericalError where low exceeds high by more than rounding * max(1, high)."""
    if low - high > rounding * max(1.0, high):
        raise NumericalError(f"{what} by {low - high:.3e}")


def _check_normal(what: str, D: float, consequence: str = "1 / D overflows") -> None:
    """Raise PrecisionError for a target D below the normal float range."""
    if not D >= sys.float_info.min:
        raise PrecisionError(f"{what}: target {D:.3e} is below the normal float range; {consequence}")


def lower_bound_closed_form(rho: float, B: int, D: float) -> float:
    """Converse rate as an explicit formula; no argument validation.

    R = (1/2) log2((D rho^2 + 1 - rho^(2(B+1)) + sqrt(delta)) / (2 D)) with
    delta = (D rho^2 + 1 - rho^(2(B+1)))^2 - 4 D rho^2 (1 - rho^(2B)).  With
    x = rho^2 and y = rho^(2B) that is the sum of two nonnegative terms,
    delta = (x D + y (1 - x) - (1 - y))^2 + 4 y (1 - y) (1 - x), so no rounding
    makes it negative.  x, y, 1 - x, 1 - y and 1 - rho^(2(B+1)) come from
    `source_constants`, so none loses its digits as rho nears 1.  The
    quadratic is negative at 2^(2R) = (1 - rho^(2(B+1))) / D, where it equals
    -rho^(2B+2) (1 - rho^2), so R exceeds the asymptote `high_res_rate`;
    where rounding puts the formula an ulp below it (small rho), R is the
    asymptote's own float.
    """
    x, one_m_x, y, one_m_y = source_constants(rho, 2 * B)
    tail = source_constants(rho, 2 * (B + 1))[3]
    b = D * x + tail
    delta = (x * D + y * one_m_x - one_m_y) ** 2 + 4.0 * y * one_m_y * one_m_x
    return max(0.5 * math.log2((b + math.sqrt(delta)) / (2.0 * D)), 0.5 * math.log2(tail / D))


def lower_bound_single(cfg: GmConfig) -> float:
    """Converse bound for the single-burst channel: (1/2) log2 x for the root
    x > 1 of D x^2 - (D rho^2 + 1 - rho^(2(B+1))) x + rho^2 (1 - rho^(2B)) = 0,
    by the closed form `lower_bound_closed_form`; 0 when D >= 1.

    The quadratic is negative at x = 1 for D < 1, so exactly one root lies
    above 1.  Where that root is within rounding of 1 (rho and D both near 1)
    the closed form can read about -1e-16, so the rate is floored at 0.  The
    tests check the closed form against a generic polynomial root finder.
    A D below the normal float range raises PrecisionError.
    """
    if cfg.D >= 1.0:
        return 0.0
    _check_normal("converse", cfg.D)
    return max(0.0, lower_bound_closed_form(cfg.rho, cfg.B, cfg.D))


def kalman_steady_sigma(rho: float, sigma_z2: float) -> float:
    """Steady-state one-step prediction error of the scalar Kalman filter that
    tracks the source through the test channel."""
    q = source_constants(check_open_unit("rho", rho), 2)[1]
    return _steady_sigma(q, check_variance("sigma_z2", sigma_z2, zero_ok=True))


def _steady_sigma(q: float, s: float) -> float:
    """`kalman_steady_sigma` at noise s, with q = 1 - rho^2; unchecked.

    The positive root of P^2 - q (1 - s) P - q s = 0, (d + q (1 - s)) / 2
    with d = sqrt(q^2 (1 - s)^2 + 4 q s).  For s > 1 those two terms cancel,
    so there it is the product of the roots over the negative one,
    2 q s / (d - q (1 - s)), with d taken by hypot so that no square
    overflows.
    """
    if s <= 1.0:
        return 0.5 * math.sqrt((1.0 - s) ** 2 * q**2 + 4.0 * s * q) + 0.5 * q * (1.0 - s)
    r = q * (s - 1.0)
    return 2.0 * q * s / (math.hypot(r, 2.0 * math.sqrt(q * s)) + r)


def _eta(a: float, q: float, p: float, steps: int, s: float) -> float:
    """`eta_multi` from error p over `steps` guard steps at noise s; a = rho^2, q = 1 - a.

    A step that returns the float it was given returns it ever after, so the
    loop stops there with the value of every remaining step: a handful of
    steps at moderate rho, the full guard near rho = 1."""
    for _ in range(steps):
        x = a * p + q
        x = x * s / (x + s)
        if x == p:
            break
        p = x
    return p


# The three burst channels.  Each builder binds its configuration's constants
# once per solve and returns aged(s), the pre-burst error at noise s aged over
# the lost slots, 1 - c (1 - pre(s)): the one function the solver evaluates.
# The single- and multi-burst closures carry their own copies of
# `_steady_sigma` and `_eta`, so that an evaluation is one Python call; the
# tests hold each copy to its kernel bit for bit.


def _single_channel(cfg: GmConfig):
    """aged(s) of the single burst: the steady-state filter error
    `_steady_sigma(q, s)` aged by c = rho^(2B)."""
    _, q, c, _ = source_constants(cfg.rho, 2 * cfg.B)
    q2, sqrt, hypot = q**2, math.sqrt, math.hypot

    def aged(s: float) -> float:
        if s <= 1.0:  # `_steady_sigma`, expression for expression
            return 1.0 - c * (1.0 - (0.5 * sqrt((1.0 - s) ** 2 * q2 + 4.0 * s * q) + 0.5 * q * (1.0 - s)))
        r = q * (s - 1.0)
        return 1.0 - c * (1.0 - 2.0 * q * s / (hypot(r, 2.0 * sqrt(q * s)) + r))

    return aged


def _multi_channel(cfg: GmConfig):
    """aged(s) of repeated bursts: `_eta(a, q, D, L - 1, s)`, the error after
    the guard interval, aged by c = rho^(2(B+1))."""
    a, q, c, _ = source_constants(cfg.rho, 2 * (cfg.B + 1))
    D, steps = cfg.D, range(cfg.L - 1)

    def aged(s: float) -> float:
        p = D
        for _ in steps:  # `_eta`, step for step
            x = a * p + q
            x = x * s / (x + s)
            if x == p:
                break
            p = x
        return 1.0 - c * (1.0 - p)

    return aged


def _two_point_channel(cfg: GmConfig):
    """aged(s) of the two-point reference: s / (1 + s), the error of
    s_{t-B-1} given u_{t-B-1} alone, aged by c = rho^(2(B+1))."""
    c = source_constants(cfg.rho, 2 * (cfg.B + 1))[2]

    def aged(s: float) -> float:
        return 1.0 - c * (1.0 - s / (1.0 + s))

    return aged


def gamma_single(cfg: GmConfig, tc: TestChannel) -> float:
    """Steady-state decoder MMSE for the single-burst worst case: harmonic sum
    of the fresh observation and the aged pre-burst estimate.  Strictly
    increasing in the test-channel noise."""
    s = tc.sigma_z2
    return 1.0 / (1.0 / s + 1.0 / _single_channel(cfg)(s))


def _bracket(aged, D: float, what: str) -> tuple[float, float, float, float]:
    """(a, b, f(a), f(b)) with f(a) < 0 <= f(b), for f(s) = mmse(s) - D, the
    burst-channel MMSE 1 / (1/s + 1/aged(s)), aged increasing in s with values
    in (0, 1].

    The bracket is analytic.  aged <= 1 puts the root at or above
    a = D / (1 - D).  Where aged(a) > D the root is at most
    1 / (1/D - 1/aged(a)), because aged only grows from a to the root;
    aged(a) >= 1 - c makes that no wider than 1 / (1/D - 1/(1 - c)).  Where
    1/aged(a) >= 1/D (D near 1) a bounded search steps upward, by factors 2, 4,
    8, ..., to a point where aged exceeds D or the MMSE reaches it; where in
    floats aged never exceeds D, the search overflows and raises
    PrecisionError.  Either end that rounding puts on the wrong side moves out
    by 1, 2, 4, ... ulps.
    """
    a, step = D / (1.0 - D), sys.float_info.epsilon
    for _ in range(_SEARCH_STEPS):
        a_aged = aged(a)
        f_a = 1.0 / (1.0 / a + 1.0 / a_aged) - D
        if f_a < 0.0:
            break
        if f_a != f_a:
            raise NumericalError(f"objective is NaN at {a!r}")
        a, step = a - a * step, min(2.0 * step, 0.5)
    else:
        raise PrecisionError(f"{what}: the MMSE reaches target {D:.3e} at every noise tried")
    grow, step = 2.0, sys.float_info.epsilon
    for _ in range(_SEARCH_STEPS):
        if 1.0 / a_aged < 1.0 / D:  # a_aged > D may round to equal reciprocals
            b, step = max(1.0 / (1.0 / D - 1.0 / a_aged), a + a * step), 2.0 * step
        else:
            b, grow = a * grow, 2.0 * grow
        if b == math.inf:
            raise PrecisionError(f"{what}: the MMSE stays below target {D!r} up to the largest "
                                 "float noise; in floats the aged error never exceeds D")
        b_aged = aged(b)
        f_b = 1.0 / (1.0 / b + 1.0 / b_aged) - D
        if f_b >= 0.0:
            return a, b, f_a, f_b
        if f_b != f_b:
            raise NumericalError(f"objective is NaN at {b!r}")
        a, f_a, a_aged = b, f_b, b_aged
    raise ConvergenceError(f"{what}: no upper end for target {D!r} in {_SEARCH_STEPS} steps")


def _solve_increasing(aged, D: float, what: str) -> tuple[float, float]:
    """(s, aged(s)) for a float sigma_z2 s where the burst-channel MMSE
    1 / (1/s + 1/aged(s)) crosses D: mmse(s) >= D > mmse(the float below s).

    The float MMSE is not monotone to the last ulp, and near D = 1 it equals D
    over thousands of consecutive floats, so more than one float can meet
    that contract; the search path chooses among them.  `_bracket` gives the
    analytic bracket and `_root` narrows it to a crossing.  aged is one of
    the channel closures (or any increasing float function): a float in, a
    float out, no validation per evaluation.  aged(s) is the value the
    search computed at s, kept by the objective at each point where the MMSE
    reached D, so the rate costs no evaluation of its own; only a root at
    the bracket's upper end, which `_root` never evaluates, is evaluated
    once more.  A D below the normal float range raises PrecisionError:
    there 1/D overflows.
    """
    _check_normal(what, D, "the required noise would underflow")
    kept = None  # aged at the last point where the MMSE reached D: `_root`'s root

    def f(s: float) -> float:
        nonlocal kept
        a = aged(s)
        f_s = 1.0 / (1.0 / s + 1.0 / a) - D
        if f_s >= 0.0:
            kept = a
        elif f_s != f_s:
            raise NumericalError(f"objective is NaN at {s!r}")
        return f_s

    s, f_s = _root(f, *_bracket(aged, D, what))
    if not f_s <= 1e-10:
        raise NumericalError(f"{what}: solver residual {f_s:.3e} exceeds 1e-10")
    return s, aged(s) if kept is None else kept


def _root(f, lo: float, hi: float, f_lo: float, f_hi: float) -> tuple[float, float]:
    """(x, f(x)) for a float x in (lo, hi] where f crosses zero: f(x) >= 0 >
    f(the float below x), given 0 <= lo < hi and f(lo) < 0 <= f(hi).  x is
    the last point evaluated with f >= 0, or hi itself where there is none.

    The Anderson-Bjorck regula falsi (BIT 13, 1973) narrows the bracket to a
    few ulps, and a search on the float bit patterns, which order
    nonnegative floats, ends on a crossing.  Where f is increasing that is
    the least float with f >= 0.
    """
    # the secant through (lo, w_lo) and (hi, w_hi): the weights start as f(lo)
    # and f(hi); when one end moves twice in a row, the other end's weight
    # shrinks, so that end moves next.  The end that just moved holds its own
    # f as its weight.  Where the rounded f jumps (rho near 1) the steps can
    # stall; after 100 the bisection below ends in at most 64 more.
    w_lo, w_hi, moved = f_lo, f_hi, 0
    for _ in range(100):
        if f_hi == 0.0 or hi - lo <= _NARROW * hi:
            break
        s = hi - w_hi * (hi - lo) / (w_hi - w_lo)
        if not lo < s < hi:
            s = 0.5 * (lo + hi)
        f_s = f(s)
        if f_s < 0.0:
            if moved < 0:
                m = 1.0 - f_s / w_lo
                w_hi *= m if m > 0.0 else 0.5
            lo, w_lo, moved = s, f_s, -1
        else:
            if moved > 0:
                m = 1.0 - f_s / w_hi
                w_lo *= m if m > 0.0 else 0.5
            hi, f_hi, w_hi, moved = s, f_s, f_s, 1
    i, j = _BITS.unpack(_FLOAT.pack(lo))[0], _BITS.unpack(_FLOAT.pack(hi))[0]
    # an exact zero may lie inside a run of floats where f rounds to zero
    # exactly: probe 1, 2, 4, ... ulps below it, never below the midpoint.
    # Otherwise bisect the gap, a few ulps after a converged regula falsi.
    gap = 1 if f_hi == 0.0 else j - i
    while j - i > 1:
        mid, gap = max((i + j) // 2, j - gap), 2 * gap
        s = _FLOAT.unpack(_BITS.pack(mid))[0]
        f_s = f(s)
        if f_s < 0.0:
            i = mid
        else:
            j, hi, f_hi = mid, s, f_s
    return hi, f_hi


def _solve(aged, D: float, what: str) -> tuple[float, float]:
    """(rate, sigma_z2) of the burst channel with aged error aged whose MMSE
    is D.  The rate is I(s_t; u_t | the past) = (1/2) log2((aged + s) / s),
    which at the root, where (aged + s) / s = aged / D, is (1/2) log2(aged / D)."""
    s, aged_s = _solve_increasing(aged, D, what)
    return 0.5 * math.log2(aged_s / D), s


def solve_test_channel_single(cfg: GmConfig) -> TestChannel:
    """Noise variance whose steady-state single-burst MMSE equals D."""
    if cfg.D >= 1.0:
        raise ValidationError("D >= 1 needs no test channel (rate is zero)")
    return TestChannel(_solve_increasing(_single_channel(cfg), cfg.D, "single-burst test channel")[0])


def rate_upper_single(cfg: GmConfig) -> float:
    """Achievable rate for the single-burst channel:
    (1/2) log2((1 - rho^(2B) (1 - Sigma)) / D) at the solved test channel."""
    if cfg.D >= 1.0:
        return 0.0
    return _solve(_single_channel(cfg), cfg.D, "single-burst test channel")[0]


def eta_multi(cfg: GmConfig, tc: TestChannel) -> float:
    """MMSE of the pre-burst state from the D-noisy older state plus the L-1
    most recent intact observations.

    A scalar Kalman recursion: the older state has error variance D, and each
    of the L-1 steps predicts, p <- rho^2 p + 1 - rho^2, then updates with a
    test-channel observation, p <- p sigma_z2 / (p + sigma_z2).
    """
    if cfg.D >= 1.0:
        raise ValidationError("eta is defined for D < 1")
    a, q, _, _ = source_constants(cfg.rho, 2)
    return _eta(a, q, cfg.D, cfg.L - 1, tc.sigma_z2)


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
    of the guard interval, clamped at zero.  A D below the normal float range
    raises PrecisionError."""
    _check_normal("high-resolution asymptote", cfg.D)
    return max(0.0, 0.5 * math.log2(source_constants(cfg.rho, 2 * (cfg.B + 1))[3] / cfg.D))


def naive_wz_rate(cfg: GmConfig) -> float:
    """Rate of coding against the most recent pre-burst observation only:
    I(s_t; u_t | u_{t-B-1}) with sigma_z2 matched so the two-point MMSE is D."""
    if cfg.D >= 1.0:
        return 0.0
    return _solve(_two_point_channel(cfg), cfg.D, "two-point test channel")[0]


def finite_t_lower(cfg: GmConfig, t: int) -> float:
    """Converse bound when decoding at finite time t >= B+1: the smallest
    float R >= 0 with R >= phi(R), where, with x = 4^R and m = t - B - 1,
    phi(R) = (1/2) log2(head sum_{k<m} rho^(2k) / x^(k+1) + tail),
    head = rho^(2(B+1)) (1 - rho^2) / D and tail = (1 - rho^(2(B+1))) / D.

    phi falls as R grows, so R - phi(R) is increasing and has one root.
    phi >= (1/2) log2(tail), the asymptote `high_res_rate`, and phi grows
    with m toward the converse's quadratic, so the root lies in
    [high_res_rate, lower_bound_single]; `_root`, the root-finder of the
    test-channel solves, finds it on that bracket.  The result is
    non-decreasing in t, at most lower_bound_single, and tends to it as t
    grows.  With u = log(rho^2 / x) the sum is
    head expm1(m u) / (x expm1(u)), and head and tail take their constants
    from `source_constants`, so no term loses its digits near rho = 1.
    """
    t = check_int("t", t, cfg.B + 1)
    if cfg.D >= 1.0:
        return 0.0
    lo, top = high_res_rate(cfg), lower_bound_single(cfg)  # a subnormal D raises here
    _, q, c, one_m_c = source_constants(cfg.rho, 2 * (cfg.B + 1))
    log_rho, D = math.log(cfg.rho), cfg.D
    head, tail = c * q / D, one_m_c / D
    m = min(t - cfg.B - 1, sys.float_info.max)  # past that, (rho^2 / x)^m is 0

    def f(r: float) -> float:
        u = 2.0 * (log_rho - r * _LN2)
        return r - 0.5 * math.log2(head / 4.0**r * (math.expm1(m * u) / math.expm1(u)) + tail)

    f_lo = f(lo)
    if f_lo >= 0.0:
        return lo
    hi, step = top, math.ulp(top)
    f_hi = f(hi)
    while f_hi < 0.0:  # rounding put the closed form below the root
        hi, step = hi + step, 2.0 * step
        f_hi = f(hi)
    return min(_root(f, lo, hi, f_lo, f_hi)[0], top)


def _single_burst(cfg: GmConfig) -> tuple[float, float, float, float]:
    """(lower, upper_single, high_res, sigma_z2_single) for D < 1: the
    converse, the single-burst solve and its rate, none of which depends on
    the guard interval L."""
    lower = lower_bound_single(cfg)
    upper, sigma_z2 = _solve(_single_channel(cfg), cfg.D, "single-burst test channel")
    return lower, upper, high_res_rate(cfg), TestChannel(sigma_z2).sigma_z2


def _with_guard(cfg: GmConfig, single: tuple[float, float, float, float]) -> GmBounds:
    """The bound chain at cfg's guard interval from `_single_burst` of the
    same (rho, B, D): the multi-burst solve, the order check and the clamp."""
    lower, upper, high_res, sigma_z2 = single
    multi, tc_multi = rate_upper_multi(cfg)
    _check_order(lower, upper, "lower bound exceeds single-burst upper bound", 1e-12)
    _check_order(upper, multi, "single-burst upper bound exceeds multi-burst upper bound", 1e-12)
    return GmBounds(
        lower=min(lower, upper),
        upper_single=upper,
        high_res=high_res,
        sigma_z2_single=sigma_z2,
        upper_multi=max(multi, upper),
        sigma_z2_multi=tc_multi.sigma_z2,
    )


def compute_bounds(cfg: GmConfig) -> GmBounds:
    """Assemble the full bound chain for one configuration.  A misorder of at
    most 1e-12 max(1, rate) is rounding: lower falls to upper_single and
    upper_multi rises to it, which leaves both valid bounds.  A larger gap
    raises NumericalError.

    The chain is two parts: `_single_burst`, which depends on (rho, B, D)
    only, and `_with_guard`, the multi-burst solve at L with the order check
    and the clamp.  A grid over L (the `fig4` figure) solves the first part
    once per (rho, B, D) and keeps it for that one command; nothing is cached
    across calls."""
    if cfg.D >= 1.0:
        return GmBounds(
            lower=0.0, upper_single=0.0, high_res=high_res_rate(cfg), sigma_z2_single=None,
            upper_multi=0.0, sigma_z2_multi=None,
        )
    return _with_guard(cfg, _single_burst(cfg))

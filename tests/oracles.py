"""Independent oracles for the Gauss-Markov bounds, the worst-case checks,
the lossless bounds and the sliding-window layer packing.

The library computes these quantities another way (a closed form, a
dynamic program, GTH state reduction, raw `getrandbits` draws); the tests
compare the two.  The
reference test-channel objectives are the plain forms of the library's
per-solve kernels, which must match them bit for bit.  `reference_solve` is
the Brent-based test-channel solve that the library's regula falsi
replaced; the two must agree to rounding.  `reference_gm_rows` is the
per-cell loop that `gauss_markov.bound_rows` replaced; the two must agree
bit for bit, errors included.
"""

from __future__ import annotations

import math
import random
import struct
import sys
from decimal import Decimal, localcontext

import streamrate.markov as markov
from streamrate import (
    ConvergenceError,
    ErasurePattern,
    NumericalError,
    PrecisionError,
    TestChannel,
    ValidationError,
)
from streamrate.errors import Record, check_int, check_open_unit, check_variance
from streamrate.gauss_markov import (
    GmConfig, _bracket, _check_order, high_res_rate, lower_bound_single, naive_wz_rate, rate_upper_multi,
    rate_upper_single,
)
from streamrate.oracle import (
    _DOMINATE, _MONOTONE, _REPLACE, EXCHANGE_T_CAP, MAX_SET_SIZE, SAMPLES_CAP, _burst_preds, _check_rate_noise,
    _Filter, _other_instance, _path_received, _SlackTracker, _stars,
)
from streamrate.sliding import _check_bw


def riccati_prediction_error(
    rho: float, sigma_z2: float, tol: float = 1e-12, max_iter: int = 10**6
) -> float:
    """One-step prediction error by iterating the scalar Riccati recursion
    p <- 1 - rho^2 + rho^2 * p * sigma_z2 / (p + sigma_z2) to its fixed point.

    Independent check of `kalman_steady_sigma`.
    """
    check_open_unit("rho", rho)
    check_variance("sigma_z2", sigma_z2, zero_ok=True)
    # the map contracts by at most rho^2 per step, so an increment below
    # tol * (1 - rho^2) / rho^2 certifies distance tol from the fixed point
    stop = tol * min(1.0, (1.0 - rho**2) / rho**2)
    p = 1.0
    for _ in range(max_iter):
        gain = 0.0 if p + sigma_z2 == 0.0 else p * sigma_z2 / (p + sigma_z2)
        nxt = 1.0 - rho**2 + rho**2 * gain
        if abs(nxt - p) < stop:
            return nxt
        p = nxt
    raise ConvergenceError("Riccati iteration did not reach its fixed point")


def worst_multi_burst(t: int, B: int, L: int) -> ErasurePattern:
    """The star: the guard-respecting pattern packing bursts of length B
    toward t; the earliest burst is truncated if fewer than B slots remain.
    Independent check of the stars the multi-burst check builds."""
    check_int("B", B)
    check_int("L", L, 1)
    erased: set[int] = set()
    i = t - 1
    while i >= 0:
        lo = max(0, i - B + 1)
        erased.update(range(lo, i + 1))
        i = lo - 1 - L
    received = tuple(j for j in range(t) if j not in erased)
    return ErasurePattern.multi_burst(t, received, B, L)


def reference_dominating_pairs(seed: int, t: int, samples: int) -> list:
    """The exchange check's domination pairs (earlier, later) drawn by
    `random.Random(seed)`'s `randint` and `sample` calls.  The library draws
    the same pairs from `getrandbits` alone."""
    rng = random.Random(int(seed))
    pairs = []
    for _ in range(samples):
        r = rng.randint(1, MAX_SET_SIZE)
        later = sorted(rng.sample(range(1, t), r))
        earlier, prev = [], 0
        for b in later:
            prev = rng.randint(prev + 1, b)
            earlier.append(prev)
        pairs.append((earlier, later))
    return pairs


def reference_predicted(filt: _Filter, t: int, received) -> float:
    """`_Filter.predicted` as one loop over the slots with a membership test:
    the per-slot reference that the library's runs between received slots,
    its single-burst tables and its multi-burst DP must match bit for bit."""
    a, q, s2 = filt.a, filt.q, filt.s2
    received = set(received)
    p = 0.0
    for i in range(t):
        p = a * p + q
        if i in received:
            p = p * s2 / (p + s2)
    return a * p + q


def reference_exchange_report(rho: float, sigma_z2: float, t: int = 20, samples: int = 500, seed: int = 0):
    """`verify_exchange_inequalities` on the reference pairs and filter loop."""
    check_int("t", t, MAX_SET_SIZE + 2, EXCHANGE_T_CAP)
    check_int("samples", samples, 0, SAMPLES_CAP)
    filt = _Filter(rho, sigma_z2)
    s2 = filt.s2
    track = _SlackTracker()

    horizons = sorted({max(4, t // 3), max(6, (2 * t) // 3), t})
    preds = _burst_preds(filt, horizons[-1], 3)
    for tt in horizons:
        for bl in range(1, min(3, tt) + 1):
            for k in range(1, tt - bl + 1):
                old, new = preds[bl][tt][k], preds[bl][tt][k - 1]
                track.add((new + s2) - (old + s2), _REPLACE, "replace-u", tt, bl, k)
                track.add(filt.mmse(new) - filt.mmse(old), _REPLACE, "replace-s", tt, bl, k)

    for earlier, later in reference_dominating_pairs(seed, t, samples):
        v_a = reference_predicted(filt, t, earlier)
        v_b = reference_predicted(filt, t, later)
        track.add(v_a - v_b, _DOMINATE, "dominate-s", earlier, later)
        track.add((v_a + s2) - (v_b + s2), _DOMINATE, "dominate-u", earlier, later)

    return track.report(
        "exchange-inequalities",
        details={"rho": rho, "sigma_z2": sigma_z2, "t": t, "samples": samples, "seed": seed},
    )


def _largest_two(entries: list) -> list:
    """The two largest entries by P, stably; fewer than three stay as they are."""
    return entries if len(entries) < 3 else sorted(entries, key=lambda e: e[0], reverse=True)[:2]


def reference_multi_burst_tops(filt: _Filter, B: int, L: int, t_max: int):
    """`oracle._multi_burst_tops` with one state per guard length g <= L:
    the DP before it merged the guard states that can no longer reach g = L.

    Every state keeps its entries (P, path, g) apart: the states g < L keep
    all of theirs, two per closed run, and only g = L and the closing runs
    keep their two largest.  A count per state gives the patterns.  The
    library's merged DP must give the same (t, patterns, top) per horizon,
    tie-breaks included."""
    B, L = min(B, t_max), max(1, min(L, t_max))
    a, q, s2 = filt.a, filt.q, filt.s2
    guard, runs = [(0.0, None, L)], []
    guard_n, runs_n = [0] * L, [0] * B  # paths per state, by g - 1 and r - 1
    guard_n[-1] = 1
    for i in range(t_max):
        guard = [(a * p + q, path, g) for p, path, g in guard]
        runs = [(a * p + q, path, r) for p, path, r in runs]
        # slot i received: the guard grows, or the run of length r over [i - r, i) closes
        received = [(p * s2 / (p + s2), path, g + (g < L)) for p, path, g in guard]
        received += _largest_two([(p * s2 / (p + s2), (i - r, r, path), 1) for p, path, r in runs])
        # slot i erased: a run starts after a full guard, or grows
        runs = [(p, path, 1) for p, path, g in guard if B and g == L] + [
            (p, path, r + 1) for p, path, r in runs if r < B
        ]
        guard = [e for e in received if e[2] < L] + _largest_two([e for e in received if e[2] == L])
        full = guard_n[-1]
        guard_n = [sum(runs_n)] + guard_n[:-1]
        guard_n[-1] += full
        runs_n = ([full] + runs_n)[:B]
        ends = [(p, path, 0) for p, path, _ in guard] + runs
        yield i + 1, sum(guard_n) + sum(runs_n), sorted(ends, key=lambda e: e[0], reverse=True)[:2]


def reference_worst_case_report(rho: float, sigma_z2: float, B: int, L: int, t_max: int, single: bool = False):
    """The single-burst (`single`, at L = t_max) or multi-burst report from
    `reference_multi_burst_tops`, with the filter's own `rate`, `mmse` and
    `predict` calls."""
    filt = _Filter(rho, _check_rate_noise(sigma_z2))
    if single:
        name, L, keys = "single-burst-worst-case", t_max, {"B": B, "t_max": t_max}
    else:
        name, keys = "multi-burst-worst-case", {"B": B, "L": L, "t_max": t_max}
    details = {"rho": filt.rho, "sigma_z2": filt.s2, **keys}
    stars_received, star_preds = _stars(filt, B, L, t_max)
    track = _SlackTracker()
    prev = None
    for t, patterns, top in reference_multi_burst_tops(filt, B, L, t_max):
        star_received, star_pred = stars_received[t], star_preds[t]
        star = (filt.rate(star_pred), filt.mmse(star_pred))
        preds = [filt.predict(p) for p, _, _ in top]
        first_is_star = patterns > 1 and preds[0] == star_pred and _path_received(t, top[0]) == star_received
        argmax = []
        for side, value, star_value in (("rate", filt.rate, star[0]), ("mmse", filt.mmse, star[1])):
            best = [value(pred) for pred in preds]
            if patterns > 1:
                other = best[1] if first_is_star else best[0]
                track.add(star_value - other, _other_instance, side, t, top, star_received, checks=patterns - 1)
            argmax.append(star_received if star_value >= best[0] else _path_received(t, top[0]))
        if prev is not None:
            track.add(star[0] - prev[0], _MONOTONE, "rate-monotone", t)
            track.add(star[1] - prev[1], _MONOTONE, "mmse-monotone", t)
        prev = star
        details[f"t{t}"] = {
            "patterns": patterns,
            "star_received": star_received,
            "argmax_rate_received": argmax[0],
            "argmax_mmse_received": argmax[1],
        }
    notes = []
    if track.violations:
        notes.append(
            "violations count failing (horizon, side) checks, each standing for every "
            "pattern compared with the star there, and failing monotone checks; not patterns"
        )
    return track.report(name, notes=notes, details=details)


def converse_rate_decimal(rho: float, B: int, D: float, digits: int = 50) -> float:
    """`lower_bound_closed_form` evaluated in `digits`-digit decimal arithmetic
    on the exact values of the float inputs: the reference for rho near 1,
    where 1 - rho^2 and 1 - rho^(2B) cancel in floating point."""
    with localcontext() as ctx:
        ctx.prec = digits
        r, d = Decimal(rho), Decimal(D)
        x = r * r
        b = d * x + 1 - r ** (2 * (B + 1))
        delta = b * b - 4 * d * x * (1 - r ** (2 * B))
        return float(((b + delta.sqrt()) / (2 * d)).ln() / (2 * Decimal(2).ln()))


def reference_brentq(f, xpre: float, xcur: float, fpre: float, fcur: float):
    """SciPy's brentq.c step for step (Brent 1973, ch. 4), with xtol = 0 and
    rtol = 2 eps, in its plain form (a NaN-checking call wrapper, abs and min
    at each use), and returning the final bracket (x, f(x), y, f(y)), in
    which a zero counts as positive where SciPy's sign test skips it.  It
    evaluates the same points in the same order as the port the library's
    test-channel solve ran before its regula falsi."""
    xtol, rtol = 0.0, 2 * sys.float_info.epsilon

    def call(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise NumericalError(f"objective is NaN at {x!r}")
        return fx

    if math.isnan(fpre) or math.isnan(fcur):
        raise NumericalError(f"objective is NaN at an end of [{xpre!r}, {xcur!r}]")
    if fpre == 0.0:
        return xpre, fpre, xcur, fcur
    if fcur == 0.0:
        return xcur, fcur, xpre, fpre
    if (fpre < 0.0) == (fcur < 0.0):
        raise NumericalError("objective has the same sign at both ends of the bracket")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if (fpre < 0.0) != (fcur < 0.0):  # a zero counts as positive
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, fcur, xblk, fblk
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


_FLOAT, _BITS = struct.Struct("<d"), struct.Struct("<q")


def reference_solve(aged, D: float, what: str) -> float:
    """The library's former test-channel solve: Brent's method on the
    analytic bracket of `gauss_markov._bracket`, then the same search on the
    float bit patterns and the same 1e-10 residual check as the library."""
    if not D >= sys.float_info.min:
        raise PrecisionError(
            f"{what}: target {D:.3e} is below the normal float range; "
            "the required noise would underflow"
        )

    def f(s: float) -> float:
        return 1.0 / (1.0 / s + 1.0 / aged(s)) - D

    x, f_x, y, f_y = reference_brentq(f, *_bracket(aged, D, what)[:4])
    lo, hi, f_hi = (y, x, f_x) if f_x >= 0.0 else (x, y, f_y)
    i, j = _BITS.unpack(_FLOAT.pack(lo))[0], _BITS.unpack(_FLOAT.pack(hi))[0]
    gap = 1 if f_hi == 0.0 else j - i
    while j - i > 1:
        mid, gap = max((i + j) // 2, j - gap), 2 * gap
        s = _FLOAT.unpack(_BITS.pack(mid))[0]
        f_s = f(s)
        if f_s != f_s:
            raise NumericalError(f"objective is NaN at {s!r}")
        if f_s < 0.0:
            i = mid
        else:
            j, hi, f_hi = mid, s, f_s
    if not f_hi <= 1e-10:
        raise NumericalError(f"{what}: solver residual {f_hi:.3e} exceeds 1e-10")
    return hi


# Reference test-channel objectives, written as a chain of checked calls:
# every evaluation builds and validates a TestChannel and recomputes the
# powers of rho, with 1 - rho^2 as (1 - rho)(1 + rho).  The per-solve kernels
# must reproduce them bit for bit.


def _reference_steady_sigma(rho: float, sigma_z2: float) -> float:
    one_m_r2 = (1.0 - rho) * (1.0 + rho)
    if sigma_z2 <= 1.0:
        return 0.5 * math.sqrt(
            (1.0 - sigma_z2) ** 2 * one_m_r2**2 + 4.0 * sigma_z2 * one_m_r2
        ) + 0.5 * one_m_r2 * (1.0 - sigma_z2)
    # above 1 the sum cancels: the product of the roots over the negative one
    lin = one_m_r2 * (sigma_z2 - 1.0)
    root = math.hypot(lin, 2.0 * math.sqrt(one_m_r2 * sigma_z2))
    return 2.0 * one_m_r2 * sigma_z2 / (root + lin)


def _reference_single_aged(cfg, sigma_z2: float) -> float:
    return 1.0 - cfg.rho ** (2 * cfg.B) * (1.0 - _reference_steady_sigma(cfg.rho, sigma_z2))


def reference_eta_multi(cfg, tc: TestChannel) -> float:
    if cfg.D >= 1.0:
        raise ValidationError("eta is defined for D < 1")
    a = cfg.rho * cfg.rho
    q = (1.0 - cfg.rho) * (1.0 + cfg.rho)
    s2 = tc.sigma_z2
    p = cfg.D
    for _ in range(cfg.L - 1):
        p = a * p + q
        p = p * s2 / (p + s2)
    return p


def _reference_multi_aged(cfg, sigma_z2: float) -> float:
    eta = reference_eta_multi(cfg, TestChannel(sigma_z2))
    return 1.0 - cfg.rho ** (2 * (cfg.B + 1)) * (1.0 - eta)


def _reference_two_point_aged(cfg, tc: TestChannel) -> float:
    pre = tc.sigma_z2 / (1.0 + tc.sigma_z2)  # error of s_{t-B-1} given u_{t-B-1}
    return 1.0 - cfg.rho ** (2 * (cfg.B + 1)) * (1.0 - pre)


def _reference_two_point_mmse(r2: Decimal, sigma_z2: Decimal) -> Decimal:
    """The two-point MMSE in closed form, with r2 = rho^(2(B+1)) and v = 1 + sigma_z2:
    1 - (v (1 + r2) - 2 r2) / (v^2 - r2)."""
    v = 1 + sigma_z2
    return 1 - (v * (1 + r2) - 2 * r2) / (v * v - r2)


def two_point_rate_decimal(rho: float, B: int, D: float, digits: int = 50) -> float:
    """`naive_wz_rate` in `digits`-digit decimal arithmetic on the exact values
    of the float inputs: the closed-form MMSE bisected to its root sigma_z2,
    then I(s_t; u_t | u_{t-B-1}) = (1/2) log2((v - r^2 / v) / sigma_z2)."""
    with localcontext() as ctx:
        ctx.prec = digits
        d, r2 = Decimal(D), Decimal(rho) ** (2 * (B + 1))
        lo = hi = d  # the MMSE is below sigma_z2 / (1 + sigma_z2) < sigma_z2
        while _reference_two_point_mmse(r2, hi) < d:
            lo, hi = hi, 2 * hi
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if _reference_two_point_mmse(r2, mid) < d else (lo, mid)
        s = (lo + hi) / 2
        v = 1 + s
        return float(((v - r2 / v) / s).ln() / (2 * Decimal(2).ln()))


def reference_aged(cfg) -> dict:
    """The aged pre-burst errors of `cfg`'s three burst channels, each a
    function of sigma_z2: what the test-channel solver takes."""
    return {
        "single": lambda s: _reference_single_aged(cfg, s),
        "multi": lambda s: _reference_multi_aged(cfg, s),
        "two-point": lambda s: _reference_two_point_aged(cfg, TestChannel(s)),
    }


def reference_mmse(aged, D: float):
    """The solver's objective mmse(s) - D for an aged error `aged`."""
    return lambda s: 1.0 / (1.0 / s + 1.0 / aged(s)) - D


def reference_bounds(cfg, solve) -> dict:
    """The three solved noise variances and the rates they give, from the
    reference aged errors; `solve(aged, target, what)` is the root finder."""
    fns = reference_aged(cfg)
    single = solve(fns["single"], cfg.D, "single-burst test channel")
    multi = solve(fns["multi"], cfg.D, "multi-burst test channel")
    two = solve(fns["two-point"], cfg.D, "two-point test channel")
    return {
        "sigma_single": single,
        "sigma_multi": multi,
        "sigma_two_point": two,
        "upper_single": 0.5 * math.log2(_reference_single_aged(cfg, single) / cfg.D),
        "upper_multi": 0.5 * math.log2(_reference_multi_aged(cfg, multi) / cfg.D),
        "nwz": 0.5 * math.log2(_reference_two_point_aged(cfg, TestChannel(two)) / cfg.D),
    }


def reference_gm_rows(cells) -> list[tuple]:
    """`gm`'s rows (rho, B, L, D, lower, upper_single, upper_multi, high_res,
    nwz), one cell at a time, as the CLI made them before `bound_rows`: a
    GmConfig per cell, then the bound chain of `compute_bounds` from the
    per-quantity public calls (the converse, the single-burst solve, the
    asymptote, the repeated-burst solve, then the order checks and the clamp)
    and `naive_wz_rate`.  rho, B, L and D are the cell's values as given."""
    rows = []
    for rho, B, L, D in cells:
        cfg = GmConfig(rho=rho, B=B, D=D, L=L)
        if cfg.D >= 1.0:
            rows.append((rho, B, L, D, 0.0, 0.0, 0.0, high_res_rate(cfg), 0.0))
            continue
        lower, upper, high_res = lower_bound_single(cfg), rate_upper_single(cfg), high_res_rate(cfg)
        multi = rate_upper_multi(cfg)[0]
        _check_order(lower, upper, "lower bound exceeds single-burst upper bound", 1e-12)
        _check_order(upper, multi, "single-burst upper bound exceeds multi-burst upper bound", 1e-12)
        rows.append((rho, B, L, D, min(lower, upper), upper, max(multi, upper), high_res, naive_wz_rate(cfg)))
    return rows


def reference_stationary(P):
    """The unique probability vector in the null space of (P^T - I), by SVD,
    as a numpy array, or None when the rank test finds no unique one (more
    than one closed class, or cross mass too small for the 1e-10
    singular-value threshold)."""
    import numpy as np

    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    _, s, vt = np.linalg.svd(P.T - np.eye(n))
    if int(np.sum(s < 1e-10 * max(1.0, s[0]))) != 1:
        return None
    v = vt[-1] / vt[-1].sum()
    if np.any(v < -1e-9):
        return None
    v = np.clip(v, 0.0, None)
    return v / v.sum()


def reference_closed_class(P) -> list[int] | None:
    """The states of the one closed class of P's support graph (entries > 0)
    by Warshall's transitive closure on every chain, or None when there are
    two or more: the states that every state reaches."""
    n = len(P)
    reach = [[i == j or P[i][j] > 0.0 for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                reach[i] = [a or b for a, b in zip(reach[i], reach[k])]
    return [j for j in range(n) if all(row[j] for row in reach)] or None


def reference_matrix_power(P, k: int):
    """P^k, k >= 1, by repeated squaring for k alone: the bits of k from the
    lowest, as numpy.linalg.matrix_power takes them.  The shared squaring
    ladder of `markov._powers` must give these powers bit for bit."""
    result = None
    while True:
        if k & 1:
            result = P if result is None else markov._matmul(result, P)
        k >>= 1
        if not k:
            return result
        P = markov._matmul(P, P)


def reference_lag_entropy(P, pi, lag: int) -> float:
    """H(s_lag | s_0) in bits from numpy's matrix power, all rows in one pass."""
    import numpy as np

    Pk = np.linalg.matrix_power(np.asarray(P, dtype=float), lag)
    logs = np.zeros_like(Pk)
    np.log2(Pk, out=logs, where=Pk > 0.0)
    return float(-(np.asarray(pi) @ (Pk * logs).sum(axis=1)))


def reference_lossless(P, pi, B: int, W: int) -> tuple[float, float, float]:
    """(predictive rate, lower, upper) of the lossless bounds from the numpy
    lag entropies."""
    h = {k: reference_lag_entropy(P, pi, k) for k in {1, B + 1, W + 1, B + W + 1}}
    upper = h[1] + (h[B + 1] - h[1]) / (W + 1)
    lower = h[1] + (h[B + W + 1] - h[W + 1]) / (W + 1) if B else h[1]
    return h[1], max(lower, h[1]), upper


class DecodeReport(Record):
    """Outcome of the symbolic decodability simulation."""

    __slots__ = _fields = ("passed", "first_failure", "steady_decodes", "joint_decodes", "checked_times")

    def __init__(self, passed: bool, first_failure: dict | None, steady_decodes: int, joint_decodes: int,
                 checked_times: int):
        Record.__init__(self, passed, first_failure, steady_decodes, joint_decodes, checked_times)


def decodability_check(
    B: int, W: int, K: int, horizon: int, burst_start: int, burst_len: int
) -> DecodeReport:
    """Symbolically simulate which refinement layers the decoder can hold.

    The packet at time i carries layer j of source i-j for j in [0, B]
    (each layer's index set contains all coarser ones).  A received packet is
    decoded when the previous packet was decoded (steady state) or when the
    last W+1 packets all arrived (joint recovery right after a burst).  At
    every time outside the burst and its W-slot grace window, every source at
    lag l in [0, K] must be held at a distortion index at most l; sources
    older than the stream start count as known constants.  The first
    violation, if any, is reported.
    """
    _check_bw(B, W)
    check_int("K", K)
    check_int("horizon", horizon)
    check_int("burst_start", burst_start)
    check_int("burst_len", burst_len, 0, B)
    if horizon < burst_start + burst_len + W + K:
        raise ValidationError(
            "invalid window geometry: need horizon >= burst_start + burst_len + W + K"
        )

    def received(i: int) -> bool:
        return not (burst_start <= i < burst_start + burst_len)

    # distortion index delivered by holding layer j of a source
    def dist_index(j: int) -> int:
        return 0 if j == 0 else W + j

    min_layer = [None] * horizon  # finest layer held per source
    got_packet = [False] * horizon  # c_i recovered
    steady = joint = checked = 0
    failure = None

    def absorb(i: int) -> None:
        got_packet[i] = True
        for j in range(0, min(B, i) + 1):
            src = i - j
            if min_layer[src] is None or j < min_layer[src]:
                min_layer[src] = j

    for i in range(horizon):
        if received(i):
            window = range(max(0, i - W), i + 1)
            if i == 0 or got_packet[i - 1]:
                if not got_packet[i]:
                    absorb(i)
                    steady += 1
            elif all(received(j) for j in window):
                for j in window:
                    if not got_packet[j]:
                        absorb(j)
                joint += 1
        in_outage = burst_len > 0 and burst_start <= i <= burst_start + burst_len + W - 1
        if in_outage:
            continue
        checked += 1
        for lag in range(0, K + 1):
            src = i - lag
            if src < 0:
                continue
            achieved = None if min_layer[src] is None else dist_index(min_layer[src])
            if achieved is None or achieved > lag:
                if failure is None:
                    failure = {
                        "time": i,
                        "lag": lag,
                        "required_index": lag,
                        "achieved_index": achieved,
                    }
    return DecodeReport(
        passed=failure is None,
        first_failure=failure,
        steady_decodes=steady,
        joint_decodes=joint,
        checked_times=checked,
    )

"""Independent oracles for the Gauss-Markov bounds and the worst-case checks.

The library computes these quantities another way (a closed form, a
dynamic program); the tests compare the two.
"""

from __future__ import annotations

from streamrate import ConvergenceError, ErasurePattern
from streamrate.errors import check_int, check_open_unit, check_variance


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


"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected values marked as hand-derived below were computed from the
defining formulas with independent oracles (polynomial root finder,
longhand arithmetic, exhaustive enumeration) before being frozen here.
"""

import math
import time

import pytest

import streamrate as sr
from conftest import numpy_or_none, random_chain
from oracles import decodability_check

np = numpy_or_none()
CHAIN_GRID_SEED = 1234


def _line(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def chain_grid():
    rng = np.random.default_rng(CHAIN_GRID_SEED)
    return [random_chain(rng, int(rng.integers(2, 4))) for _ in range(50)]


@pytest.mark.needs_numpy
def test_criterion_01_bound_ordering(chain_grid):
    start = time.perf_counter()
    ok = True
    for chain in chain_grid:
        for B in range(5):
            for W in range(5):
                b = sr.lossless_bounds(chain, B, W)
                ok &= b.lower <= b.upper + 1e-10
                if W == 0:
                    ok &= abs(b.upper - b.lower) <= 1e-10
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    _line(1, ok, f"lossless bound ordering on 50 chains x 25 windows ({elapsed:.2f}s)")


@pytest.mark.needs_numpy
def test_criterion_02_amortization_identity(chain_grid):
    ok = True
    for chain in chain_grid:
        for B in range(5):
            for W in range(5):
                b = sr.lossless_bounds(chain, B, W)
                window = sr.window_conditional_entropy(chain, B, W)
                ok &= abs(b.upper * (W + 1) - window) <= 1e-10
    _line(2, ok, "upper bound times W+1 equals the joint window entropy")


@pytest.mark.needs_numpy
def test_criterion_03_gauss_markov_cross_oracle():
    start = time.perf_counter()
    ok = True
    for rho in (0.7, 0.9):
        for B in (1, 2):
            for D in (0.1, 0.2, 0.3):
                cfg = sr.GmConfig(rho=rho, B=B, D=D)
                tc = sr.solve_test_channel_single(cfg)
                sys = sr.GaussianSystem(rho, tc.sigma_z2, 40)
                pat = sr.ErasurePattern.single_burst(40, B, 0)
                ok &= abs(sr.decode_rate(sys, pat) - sr.rate_upper_single(cfg)) <= 1e-5
                ok &= abs(sr.decode_mmse(sys, pat) - sr.gamma_single(cfg, tc)) <= 1e-5
                ok &= abs(sr.gamma_single(cfg, tc) - D) <= 1e-10
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    _line(3, ok, f"closed forms vs exact conditioning at t=40, 12 configs ({elapsed:.2f}s)")


@pytest.mark.needs_numpy
def test_criterion_04_quadratic_consistency():
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(200):
        rho = float(rng.uniform(0.05, 0.98))
        B = int(rng.integers(1, 5))
        D = float(rng.uniform(0.01, 0.95))
        closed = sr.lower_bound_single(sr.GmConfig(rho=rho, B=B, D=D))
        b = D * rho**2 + 1 - rho ** (2 * (B + 1))
        c = rho**2 * (1 - rho ** (2 * B))
        roots = np.roots([D, -b, c])
        roots = roots[np.isreal(roots)].real
        (x,) = roots[roots > 1.0]
        ok &= abs(closed - 0.5 * math.log2(x)) <= 1e-10
    _line(4, ok, "converse closed form equals the quadratic root on 200 points")


def test_criterion_05_worst_case_verification_suite():
    start = time.perf_counter()
    reports = [
        sr.verify_single_burst_worst_case(0.9, 0.1, B=1, t_max=12),
        sr.verify_single_burst_worst_case(0.9, 0.1, B=2, t_max=12),
        sr.verify_multi_burst_worst_case(0.9, 0.1, B=2, L=3, t_max=18),
        sr.verify_exchange_inequalities(0.9, 0.1, t=20, samples=500, seed=0),
    ]
    ok = all(r.passed and r.violations == 0 for r in reports)
    t18 = reports[2].details["t18"]
    expected_star = [0, 3, 4, 5, 8, 9, 10, 13, 14, 15]
    ok &= t18["star_received"] == expected_star
    ok &= t18["argmax_rate_received"] == expected_star
    ok &= t18["argmax_mmse_received"] == expected_star
    elapsed = time.perf_counter() - start
    ok &= elapsed < 90.0
    _line(5, ok, f"worst-case erasure suite, zero violations ({elapsed:.1f}s)")


def test_criterion_06_high_resolution_convergence():
    gaps_lower, gaps_multi = [], []
    for D in (1e-2, 1e-3, 1e-4):
        cfg = sr.GmConfig(rho=0.9, B=1, D=D, L=4)
        hr = sr.high_res_rate(cfg)
        gaps_lower.append(abs(sr.lower_bound_single(cfg) - hr))
        gaps_multi.append(abs(sr.rate_upper_multi(cfg)[0] - hr))
    ok = gaps_lower[0] > gaps_lower[1] > gaps_lower[2]
    ok &= gaps_multi[0] > gaps_multi[1] > gaps_multi[2]
    ok &= gaps_lower[2] < 0.05 and gaps_multi[2] < 0.05
    _line(6, ok, "both bounds collapse onto the small-D asymptote")


def test_criterion_07_guard_interval_convergence():
    ok = True
    for D in (0.5, 0.8):
        cfg = sr.GmConfig(rho=0.9, B=1, D=D, L=8)
        multi, _ = sr.rate_upper_multi(cfg)
        single = sr.rate_upper_single(cfg)
        ok &= abs(multi - single) < 1e-3
    _line(7, ok, "L=8 multi-burst rate within 1e-3 of the single-burst rate")


def test_criterion_08_sliding_window_values():
    d = sr.DistortionVector((0.1, 0.25, 0.4, 0.55, 0.7, 0.85))
    # longhand evaluation of the rate formula at the reference distortions
    half = lambda x: 0.5 * math.log2(1.0 / x)
    by_hand_w0 = half(0.1) + half(0.25) + half(0.4)
    by_hand_w1 = half(0.1) + 0.5 * (half(0.4) + half(0.55))
    r0 = sr.rate_recovery(d, 2, 0)
    r1 = sr.rate_recovery(d, 2, 1)
    ok = abs(r0 - by_hand_w0) <= 1e-12 and abs(r0 - 3.3219) <= 1e-4
    ok &= abs(r1 - by_hand_w1) <= 1e-12 and abs(r1 - 2.2071) <= 1e-4
    for W in range(6):
        base = sr.baseline_rates(d, 2, W)
        ok &= sr.rate_recovery(d, 2, W) <= base.minimum() + 1e-12
    _line(8, ok, "sliding-window rates match hand evaluation; baselines dominate")


def test_criterion_09_decodability_sweep():
    start = time.perf_counter()
    ok = True
    horizon = 40
    for B in (1, 2, 3):
        for W in (0, 1, 2, 3):
            for K in (1, 2, 3, 4, 5, 6):
                for burst_len in range(0, B + 1):
                    for burst_start in range(0, horizon - burst_len - W - K + 1):
                        rep = decodability_check(
                            B=B, W=W, K=K, horizon=horizon,
                            burst_start=burst_start, burst_len=burst_len,
                        )
                        if not rep.passed:
                            ok = False
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _line(9, ok, f"layer packing decodable for every burst placement ({elapsed:.1f}s)")


@pytest.mark.needs_numpy
def test_criterion_10_monte_carlo():
    start = time.perf_counter()
    cfg = sr.GmConfig(rho=0.9, B=1, D=0.2)
    tc = sr.solve_test_channel_single(cfg)
    sim_cfg = sr.SimConfig(
        rho=0.9, sigma_z2=tc.sigma_z2, horizon=50, trials=10**5, seed=2024, bursts=((48, 1),)
    )
    res = sr.simulate_gm_stream(sim_cfg)
    ok = abs(res.mse[49] - 0.2) <= 3 * res.stderr[49]

    q = 0.1
    rate = -(q * math.log2(q) + (1 - q) * math.log2(1 - q)) + 0.3
    estimates = []
    for n in (8, 12, 16):
        bc = sr.BinningConfig(n=n, q=q, rate=rate, trials=20000, seed=2024)
        estimates.append(sr.simulate_binning(bc).p_hat)
    ok &= estimates[0] > estimates[1] > estimates[2]
    elapsed = time.perf_counter() - start
    ok &= elapsed < 300.0
    _line(10, ok, f"post-burst MSE hits target; binning error falls with n ({elapsed:.1f}s)")

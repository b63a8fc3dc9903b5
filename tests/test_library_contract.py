"""The library contract of the public functions: on its documented domain
each call gives a finite result or raises a typed error, within a time bound.

The CLI fuzz covers what the commands call with the values a command line
carries; here the Gauss-Markov rates also take every D that `GmConfig`
accepts, subnormal ones down to 5e-324 among them, and the other functions
are reached only from the library.  `finite_t_lower` has its own property in
`test_gauss_markov.py`.
"""

import math
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streamrate as sr
from streamrate import ConvergenceError, NumericalError, ValidationError

TYPED = (ValidationError, NumericalError, ConvergenceError)
TIME_BOUND_S = 1.0  # a legal input must not stall; the slowest call here takes milliseconds

rhos = st.one_of(st.floats(1e-6, 0.99), st.floats(1.0, 12.0).map(lambda k: 1.0 - 10.0**-k))
noises = st.floats(-300.0, 300.0).map(lambda k: 10.0**k)


@st.composite
def gm_configs(draw):
    # 10^k rounds to 0 below k = -323.5; 5e-324 is the least positive float
    D = draw(st.one_of(st.floats(-324.0, 0.0).map(lambda k: max(10.0**k, 5e-324)), st.floats(1e-3, 1.0),
                       st.floats(5e-324, sys.float_info.min)))
    return sr.GmConfig(rho=draw(rhos), B=draw(st.integers(1, 8)), D=D,
                       L=draw(st.integers(1, sr.gauss_markov.GUARD_CAP)))


@st.composite
def stochastic(draw):
    """An n x n row-stochastic matrix, n = 1..6, as lists; zeros and tiny
    entries allowed, so some chains are reducible or nearly so."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1e-300, 1e-100))
    rows = []
    for i in range(n):
        row = draw(st.lists(entry, min_size=n, max_size=n))
        total = math.fsum(row)
        rows.append([x / total for x in row] if total > 0.0 else [float(i == j) for j in range(n)])
    return rows


def outcome(call, *args, **kwargs):
    """call's result, or None where it raises a typed error; either within
    TIME_BOUND_S."""
    start = time.perf_counter()
    try:
        result = call(*args, **kwargs)
    except TYPED:
        result = None
    assert time.perf_counter() - start < TIME_BOUND_S
    return result


def assert_finite(*values):
    assert all(math.isfinite(v) for v in values), values


@settings(max_examples=100, deadline=None)
@given(gm_configs(), noises)
def test_gamma_single(cfg, sigma_z2):
    mmse = outcome(sr.gamma_single, cfg, sr.TestChannel(sigma_z2))
    if mmse is not None:
        assert_finite(mmse)


@settings(max_examples=100, deadline=None)
@given(gm_configs(), noises)
def test_eta_multi(cfg, sigma_z2):
    eta = outcome(sr.eta_multi, cfg, sr.TestChannel(sigma_z2))
    if eta is not None:
        assert_finite(eta)


@pytest.mark.parametrize("rate", [
    sr.lower_bound_single, sr.high_res_rate, sr.rate_upper_single, sr.naive_wz_rate,
    lambda cfg: sr.rate_upper_multi(cfg)[0],
])
@settings(max_examples=100, deadline=None)
@given(gm_configs())
def test_gauss_markov_rate(rate, cfg):
    r = outcome(rate, cfg)
    if r is not None:
        assert_finite(r)


@settings(max_examples=100, deadline=None)
@given(gm_configs())
def test_compute_bounds(cfg):
    bounds = outcome(sr.compute_bounds, cfg)
    if bounds is not None:
        assert_finite(bounds.lower, bounds.upper_single, bounds.high_res, bounds.upper_multi)


@settings(max_examples=100, deadline=None)
@given(rhos, st.one_of(st.just(0.0), noises))
def test_kalman_steady_sigma(rho, sigma_z2):
    sigma = outcome(sr.kalman_steady_sigma, rho, sigma_z2)
    if sigma is not None:
        assert_finite(sigma)


@settings(max_examples=100, deadline=None)
@given(stochastic())
def test_stationary_distribution(P):
    pi = outcome(sr.stationary_distribution, P)
    if pi is not None:
        assert_finite(*pi)
        assert min(pi) >= 0.0 and math.fsum(pi) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(stochastic())
def test_multiterminal_sum_rate(P):
    chain = outcome(sr.MarkovChain.from_transition, P)
    rate = None if chain is None else outcome(sr.multiterminal_sum_rate, chain)
    if rate is not None:
        assert_finite(rate)


@pytest.mark.needs_numpy
@settings(max_examples=25, deadline=None)
@given(rhos, noises, st.integers(1, 40), st.integers(1, 32), st.integers(0, 2**64 - 1), st.integers(1, 5))
def test_sweep_burst_position(rho, sigma_z2, horizon, trials, seed, B):
    cfg = sr.SimConfig(rho=rho, sigma_z2=sigma_z2, horizon=horizon, trials=trials, seed=seed)
    report = outcome(sr.sweep_burst_position, cfg, B)
    if report is not None:
        assert_finite(*report.empirical, *report.stderr, *report.exact)

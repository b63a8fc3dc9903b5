"""`errors.source_constants`: the powers of rho and their complements that
the test channels, the converse, the oracle's filter and the simulator share.

1 - rho**2 cancels as rho nears 1 (at rho = 1 - 1e-9 it keeps 29 of its 53
bits); the helper's (1 - rho)(1 + rho) and -expm1(n log rho) do not.
"""

import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import streamrate as sr
from streamrate.errors import source_constants
from streamrate.oracle import _Filter

rhos = st.one_of(st.floats(0.05, 0.99), st.floats(1.0, 12.0).map(lambda k: 1.0 - 10.0**-k))


def _within_ulps(got: float, want: Decimal, ulps: int) -> bool:
    return abs(Decimal(got) - want) <= ulps * Decimal(math.ulp(float(want)))


@settings(max_examples=300, deadline=None)
@given(rho=rhos, n=st.integers(0, 10**4).map(lambda k: 2 * k))
@example(rho=1.0 - 1e-12, n=2)
@example(rho=1.0 - 1e-12, n=4)
@example(rho=0.05, n=0)
def test_complements_within_3_ulps_of_decimal(rho, n):
    a, q, c, one_m_c = source_constants(rho, n)
    with localcontext() as ctx:
        ctx.prec = 60
        r = Decimal(rho)
        assert _within_ulps(q, 1 - r * r, 3)
        assert _within_ulps(one_m_c, 1 - r**n, 3)
    assert (a, c) == (rho * rho, rho**n)
    if n == 2:
        assert one_m_c == q


@pytest.mark.needs_numpy
def test_filter_kernels_share_q_near_unit_correlation():
    # 1 - rho**2 reads 0x1.12e0be0000000p-29 here: 24 of its bits are lost
    rho = 1.0 - 1e-9
    q = (1.0 - rho) * (1.0 + rho)
    assert q.hex() == "0x1.12e0bdfdb1b44p-29"
    stream = sr.simulate_gm_stream(sr.SimConfig(rho, 0.1, 3, 4, 0, bursts=((0, 1),)))
    for value in (
        sr.kalman_steady_sigma(rho, 0.0),
        _Filter(rho, 0.1).predict(0.0),
        float(stream.exact_mmse[0]),
    ):
        assert value.hex() == q.hex()

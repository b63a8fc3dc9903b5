"""The library's record types: construction, repr, equality, hashing,
immutability, pickling and copying, and the values each derives from its
fields.

Every case is built from keyword arguments in field order, so the positional
call is the same values in the same order.  The expected repr is
`Name(field=value, ...)` with each value's own repr.
"""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streamrate as sr
from oracles import DecodeReport

CASES = {
    "GmConfig": dict(rho=0.9, B=1, D=0.2, L=2),
    "TestChannel": dict(sigma_z2=0.5),
    "GmBounds": dict(lower=0.5, upper_single=0.6, high_res=0.4, sigma_z2_single=0.3, upper_multi=0.7,
                     sigma_z2_multi=0.25),
    "MarkovChain": dict(alphabet_size=2, transition=((0.5, 0.5), (0.5, 0.5)), stationary=(0.5, 0.5)),
    "LosslessBounds": dict(upper=0.9, lower=0.8, predictive_rate=0.7, B=1, W=1),
    "ErasurePattern": dict(t=4, received=(0, 1, 3)),
    "GaussianSystem": dict(rho=0.9, sigma_z2=0.1, t=2),
    "VerificationReport": dict(name="check", passed=True, checks=3, violations=0, min_slack=0.5,
                               worst={"t": 2}, notes=["a note"], details={"k": 1}),
    "SimConfig": dict(rho=0.9, sigma_z2=0.1, horizon=10, trials=4, seed=7, bursts=((2, 1),)),
    "StreamResult": dict(mse=np.array([0.5, 0.25]), stderr=np.array([0.1, 0.05]),
                         exact_mmse=np.array([0.5, 0.25]), erased=np.array([False, True])),
    "BurstSweepReport": dict(offsets=(0, 1), empirical=(0.5, 0.4), stderr=(0.01, 0.01), exact=(0.5, 0.4),
                             decode_time=9),
    "BinningConfig": dict(n=8, q=0.1, rate=0.8, trials=100, seed=3),
    "BinningResult": dict(errors=5, trials=100),
    "DistortionVector": dict(values=(0.1, 0.5)),
    "LayerPlan": dict(tilde_rates=(0.5, 0.25), W=0),
    "BaselineRates": dict(still_image=1.0, wyner_ziv=0.8, predictive_fec=0.9, gop=0.7),
    "DecodeReport": dict(passed=True, first_failure=None, steady_decodes=4, joint_decodes=1, checked_times=5),
}
NAMES = sorted(CASES)
ARRAYS = {"StreamResult"}  # numpy fields: unhashable, compared by value
UNHASHABLE = ARRAYS | {"VerificationReport"}  # and list and dict fields
# values a record derives from its fields: read-only properties, not fields
DERIVED = {
    "LayerPlan": ("B", "cum_rates"),
    "BinningResult": ("p_hat", "stderr", "ci_low", "ci_high"),
    "BurstSweepReport": ("exact_nonincreasing", "empirical_tracks_exact"),
    "StreamResult": ("times",),
}


def record_type(name):
    """The library's record type, or the decodability report the tests keep."""
    return DecodeReport if name == "DecodeReport" else getattr(sr, name)


def build(name):
    return record_type(name)(**CASES[name])


def assert_same(name, a, b):
    assert type(a) is type(b)
    assert a == b
    if name in ARRAYS:  # == compares values; the dtypes must match too
        for field in CASES[name]:
            assert getattr(a, field).dtype == getattr(b, field).dtype


def test_every_record_type_is_covered():
    assert len(CASES) == 17
    assert all(name in sr.__all__ for name in set(CASES) - {"DecodeReport"})


@pytest.mark.parametrize("name", NAMES)
def test_positional_and_keyword_construction_agree(name):
    kwargs = CASES[name]
    positional = record_type(name)(*kwargs.values())
    assert_same(name, positional, build(name))
    for field, value in kwargs.items():
        got = getattr(positional, field)
        assert np.array_equal(got, value) if name in ARRAYS else got == value


@pytest.mark.parametrize("name", NAMES)
def test_missing_or_unknown_argument_is_type_error(name):
    cls, kwargs = record_type(name), CASES[name]
    first = next(iter(kwargs))
    with pytest.raises(TypeError):
        cls(**{k: v for k, v in kwargs.items() if k != first})
    with pytest.raises(TypeError):
        cls(**kwargs, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*kwargs.values(), 1)


@pytest.mark.parametrize("name", NAMES)
def test_repr_lists_the_fields(name):
    fields = ", ".join(f"{k}={v!r}" for k, v in CASES[name].items())
    assert repr(build(name)) == f"{name}({fields})"


def test_repr_text():
    assert repr(build("GmConfig")) == "GmConfig(rho=0.9, B=1, D=0.2, L=2)"
    assert repr(build("ErasurePattern")) == "ErasurePattern(t=4, received=(0, 1, 3))"
    assert repr(sr.TestChannel(0.5)) == "TestChannel(sigma_z2=0.5)"


def test_defaults():
    assert sr.GmConfig(0.9, 1, 0.2).L == 1
    with pytest.raises(TypeError):
        sr.GmBounds(0.5, 0.6, 0.4, 0.3)  # upper_multi is required
    assert sr.GmBounds(0.5, 0.6, 0.4, 0.3, 0.7).sigma_z2_multi is None
    assert sr.SimConfig(0.9, 0.1, 10, 4, 7).bursts == ()
    report = sr.VerificationReport("check", True, 3, 0, 0.5, None)
    assert (report.notes, report.details) == ([], {})
    assert report.notes is not sr.VerificationReport("check", True, 3, 0, 0.5, None).notes


@pytest.mark.parametrize("name", sorted(set(NAMES) - UNHASHABLE))
def test_equality_and_hash_follow_the_fields(name):
    a, b = build(name), build(name)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != CASES[name] and a != tuple(CASES[name].values())


def test_field_changes_break_equality():
    assert sr.GmConfig(0.9, 1, 0.2, 2) != sr.GmConfig(0.9, 1, 0.2, 3)
    assert sr.TestChannel(0.5) != sr.TestChannel(0.25)
    assert sr.ErasurePattern(4, (3, 1, 0)) == build("ErasurePattern")  # received is normalised


@pytest.mark.parametrize("name", NAMES)
def test_assignment_is_attribute_error(name):
    record = build(name)
    field = next(iter(CASES[name]))
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


def test_arrays_make_an_unhashable_record():
    with pytest.raises(TypeError):
        hash(build("StreamResult"))


def test_stream_results_of_two_seeds_compare_unequal():
    a, b = (sr.simulate_gm_stream(sr.SimConfig(0.9, 0.1, 5, 4, seed)) for seed in (0, 1))
    assert a != b and not a == b
    assert a == sr.simulate_gm_stream(sr.SimConfig(0.9, 0.1, 5, 4, 0))
    assert build("StreamResult") != CASES["StreamResult"]


def test_verification_report_is_unhashable():
    report = build("VerificationReport")
    with pytest.raises(TypeError):
        hash(report)
    assert report.to_dict() == {
        "name": "check", "passed": True, "checks": 3, "violations": 0, "min_slack": 0.5,
        "worst": {"t": 2}, "notes": ["a note"], "details": {"k": 1},
    }


@pytest.mark.parametrize("name", sorted(DERIVED))
def test_derived_values_are_read_only_properties(name):
    record = build(name)
    again = copy.copy(record)
    for attr in DERIVED[name]:
        assert attr not in record._fields
        value = getattr(record, attr)
        assert np.array_equal(getattr(again, attr), value)
        with pytest.raises(AttributeError):
            setattr(record, attr, value)


def test_derived_values_of_the_cases():
    plan = build("LayerPlan")
    assert (plan.B, plan.cum_rates) == (1, (0.75, 0.25))
    assert sr.BinningResult(5, 100).stderr == math.sqrt(0.05 * 0.95 / 100)
    sweep = build("BurstSweepReport")
    assert sweep.exact_nonincreasing and sweep.empirical_tracks_exact and sweep.passed
    assert np.array_equal(build("StreamResult").times, np.arange(2))


def _bits(values):
    return [float(v).hex() for v in values]


@settings(max_examples=60, deadline=None)
@given(
    d=st.lists(st.floats(1e-300, 1.0), min_size=1, max_size=70).map(sorted),
    B=st.integers(0, 60),
    W=st.integers(0, 8),
)
def test_layer_plan_properties_equal_the_layer_construction(d, B, W):
    # layer 0 from d_{W+1} to d_0, layer j from d_{W+j+1} to d_{W+j}, layer B
    # from 1 to d_{W+B}, and each cumulative rate a suffix sum, bit for bit
    eff = sr.reduce_window(sr.DistortionVector(tuple(d)), B, W)
    if B == 0:
        tilde = [0.5 * math.log2(1.0 / eff[0])]
    else:
        tilde = [0.5 * math.log2(eff[W + 1] / eff[0])]
        tilde += [0.5 * math.log2(eff[W + j + 1] / eff[W + j]) for j in range(1, B)]
        tilde.append(0.5 * math.log2(1.0 / eff[W + B]))
    plan = sr.layer_plan(sr.DistortionVector(tuple(d)), B, W)
    assert plan.B == B
    assert _bits(plan.tilde_rates) == _bits(tilde)
    assert _bits(plan.cum_rates) == _bits([sum(tilde[j:]) for j in range(B + 1)])


@given(trials=st.integers(1, 10**7), data=st.data())
def test_binning_result_properties_equal_the_formulas(trials, data):
    errors = data.draw(st.integers(0, trials))
    p = errors / trials
    se = math.sqrt(max(p * (1.0 - p), 0.0) / trials)
    z = 1.959963984540054
    res = sr.BinningResult(errors, trials)
    assert _bits([res.p_hat, res.stderr, res.ci_low, res.ci_high]) == _bits(
        [p, se, max(0.0, p - z * se), min(1.0, p + z * se)]
    )


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), trials=st.integers(1, 40))
def test_burst_sweep_properties_equal_the_checks(seed, trials):
    rep = sr.sweep_burst_position(sr.SimConfig(0.9, 0.1, 14, trials, seed), 2)
    emp, err, exact = rep.empirical, rep.stderr, rep.exact
    assert rep.exact_nonincreasing == all(b <= a + 1e-12 for a, b in zip(exact, exact[1:]))
    assert rep.empirical_tracks_exact == all(abs(e - x) <= 3.0 * s for e, s, x in zip(emp, err, exact))


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("round_trip", [
    lambda r: pickle.loads(pickle.dumps(r)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_pickle_and_copy_round_trips(name, round_trip):
    record = build(name)
    again = round_trip(record)
    assert again is not record
    assert_same(name, again, record)


def test_gaussian_system_copy_rebuilds_its_covariance():
    system = build("GaussianSystem")
    again = copy.copy(system)
    assert np.array_equal(again.covariance, system.covariance)
    assert again.index(("u", 2)) == system.index(("u", 2)) == 6
